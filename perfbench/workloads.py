"""Workload definitions, input generation and output checks for the benchmark.

Three workloads, each a fixed list of operations run in one fresh
interpreter per repetition:

* ``scan``: two ``zetalab scan`` tables at growing degree.  The exact
  pipeline (summand, partial fractions, harmonic collapse) does the work.
* ``verify``: three ``zetalab verify`` crosschecks (decay degrees 2, 3 and
  5, all on the mpf direct-sum tier) plus one library ``direct_sum_value``
  call that takes the float64 tier.  The numeric oracles do the work; the
  exact pipeline is under 1 % of it.
* ``coeffs_cache``: random integer polynomials, each run through
  ``decompose`` and ``value`` against a fresh ``--cache`` file twice: pass 1
  misses and appends, pass 2 hits.

Inputs come from the bench seed only.  The ``coeffs_cache`` polynomials are
drawn from a fixed pool of variants per slot, so that every input has a
golden output recorded at the seed commit, and so that the shape of each
slot (degree, r, v, number of nonzero coefficients) and with it the cost of
the workload does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS_PATH = HERE / "goldens.json"

WORKLOADS = ("scan", "verify", "coeffs_cache")

SCAN_PREC = 50
SCAN_CASES = ((3, 2, 15), (2, 1, 20))  # (r, v, n_max)
SCAN_CASES_TINY = ((3, 2, 4), (2, 1, 5))
SCAN_HEADER = "n,abs_c,lcm_pow,lcm_scaled,exp_scaled,ratio_to_prev"

VERIFY_PREC = 30
VERIFY_SAMPLES = 100_000
VERIFY_CASES = ((2, 2, 0), (1, 2, 1), (2, 3, 2))  # (n, r, v); decay 2, 3, 5
VERIFY_CASES_TINY = ((2, 3, 2),)
VERIFY_PREC_TINY = 10
VERIFY_SAMPLES_TINY = 10_000
# direct_sum_value(legendre_coeffs(0), 2, 0, target) sums 1/(k+1)**2 = zeta(2);
# any target below 1e-5 needs more terms than the mpf tier takes, so the
# float64 tier runs.  1e-7 keeps the call near one second.
FLOAT_TIER_TARGET = (1, 10**7)
FLOAT_TIER_TARGET_TINY = (1, 10**6)

COEFFS_SLOTS = 36
COEFFS_SLOTS_TINY = 4
COEFFS_VARIANTS = 16
COEFFS_PREC = 30
_POOL_SEED = 20090707
_NONZERO = [c for c in range(-9, 10) if c != 0]

# an untraced run repeats its input set at least this many times, and more
# if needed to time more than ten operations
MIN_REPS = 3


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- coeffs_cache inputs ------------------------------------------------------


def slot_shapes(slots: int = COEFFS_SLOTS) -> list[dict]:
    """Fixed (degree, r, v, sparse) per slot; independent of the bench seed.

    Degrees cycle through 1..12, r through 2..5 and v through 0..4 in
    shuffled orders; two slots in five are sparse.  Slot 0 is pinned to
    r + v = 9, the highest pole order the workload asks for.
    """
    rng = random.Random(_POOL_SEED)
    degrees = [1 + i % 12 for i in range(slots)]
    rs = [2 + i % 4 for i in range(slots)]
    vs = [i % 5 for i in range(slots)]
    sparse = [i % 5 < 2 for i in range(slots)]
    for column in (degrees, rs, vs, sparse):
        rng.shuffle(column)
    shapes = [
        {"degree": d, "r": r, "v": v, "sparse": s}
        for d, r, v, s in zip(degrees, rs, vs, sparse)
    ]
    shapes[0] = dict(shapes[0], r=5, v=4)
    return shapes


def pool_coeffs(slot: int, variant: int, shape: dict) -> list[int]:
    """Coefficients (lowest degree first) of pool entry (slot, variant).

    Dense entries have every coefficient nonzero; sparse ones zero out
    half of the coefficients below the leading one.  The count of nonzero
    coefficients, which sets the number of poles, is fixed by the shape.
    """
    rng = random.Random(f"{_POOL_SEED}:{slot}:{variant}")
    deg = shape["degree"]
    coeffs = [rng.choice(_NONZERO) for _ in range(deg + 1)]
    if shape["sparse"]:
        for i in rng.sample(range(deg), (deg + 1) // 2):
            coeffs[i] = 0
    return coeffs


def coeffs_inputs(seed: int, tiny: bool = False) -> list[dict]:
    slots = COEFFS_SLOTS_TINY if tiny else COEFFS_SLOTS
    rng = random.Random(seed)
    out = []
    for slot, shape in enumerate(slot_shapes()[:slots]):
        variant = rng.randrange(COEFFS_VARIANTS)
        out.append(
            dict(shape, slot=slot, variant=variant, coeffs=pool_coeffs(slot, variant, shape))
        )
    return out


def coeffs_argvs(entry: dict, cache_path: str) -> tuple[list[str], list[str]]:
    coeffs = "--coeffs=" + ",".join(str(c) for c in entry["coeffs"])
    rv = ["--r", str(entry["r"]), "--v", str(entry["v"])]
    decompose = ["decompose", coeffs, *rv, "--cache", cache_path]
    value = ["value", coeffs, *rv, "--prec", str(COEFFS_PREC), "--cache", cache_path]
    return decompose, value


def coeffs_key(entry: dict) -> str:
    return f"{','.join(map(str, entry['coeffs']))};{entry['r']};{entry['v']}"


def input_stats(workload: str, seed: int, tiny: bool) -> dict:
    if workload == "scan":
        cases = SCAN_CASES_TINY if tiny else SCAN_CASES
        return {"cases": [f"r={r} v={v} n_max={n}" for r, v, n in cases], "prec": SCAN_PREC}
    if workload == "verify":
        return {
            "cases": [f"n={n} r={r} v={v}" for n, r, v in (VERIFY_CASES_TINY if tiny else VERIFY_CASES)],
            "mc_seed": verify_mc_seed(seed),
            "float_tier_target": "%d/%d" % (FLOAT_TIER_TARGET_TINY if tiny else FLOAT_TIER_TARGET),
        }
    entries = coeffs_inputs(seed, tiny)
    hist = Counter(e["degree"] for e in entries)
    return {
        "polys": len(entries),
        "degree_hist": {str(d): hist[d] for d in sorted(hist)},
        "share_sparse": round(sum(e["sparse"] for e in entries) / len(entries), 3),
        "max_r_plus_v": max(e["r"] + e["v"] for e in entries),
        "variants_digest": sha(",".join(str(e["variant"]) for e in entries))[:12],
    }


# -- operation lists ------------------------------------------------------------


def verify_mc_seed(seed: int) -> int:
    return random.Random(f"verify:{seed}").randrange(2**32)


def build_ops(workload: str, seed: int, tiny: bool, cache_path: str) -> list[dict]:
    """The fixed operation list of one repetition.

    Each op is ``{"kind": "cli", "argv": [...]}`` (run through
    ``zetalab.cli.main``) or ``{"kind": "direct_sum", ...}`` (a library call).
    """
    if workload == "scan":
        return [
            {
                "kind": "cli",
                "argv": ["scan", "--r", str(r), "--v", str(v), "--n-max", str(n_max),
                         "--prec", str(SCAN_PREC), "--progress-every", "1"],
                "rows": n_max + 1,
                "r": r,
                "v": v,
            }
            for r, v, n_max in (SCAN_CASES_TINY if tiny else SCAN_CASES)
        ]
    if workload == "verify":
        prec = VERIFY_PREC_TINY if tiny else VERIFY_PREC
        samples = VERIFY_SAMPLES_TINY if tiny else VERIFY_SAMPLES
        ops = [
            {
                "kind": "cli",
                "argv": ["verify", "--n", str(n), "--r", str(r), "--v", str(v),
                         "--prec", str(prec), "--samples", str(samples),
                         "--seed", str(verify_mc_seed(seed))],
            }
            for n, r, v in (VERIFY_CASES_TINY if tiny else VERIFY_CASES)
        ]
        num, den = FLOAT_TIER_TARGET_TINY if tiny else FLOAT_TIER_TARGET
        ops.append({"kind": "direct_sum", "n": 0, "r": 2, "v": 0, "target": [num, den]})
        return ops
    if workload == "coeffs_cache":
        entries = coeffs_inputs(seed, tiny)
        ops = []
        for pass_no in (1, 2):
            for e in entries:
                for cmd, argv in zip(("decompose", "value"), coeffs_argvs(e, cache_path)):
                    ops.append({"kind": "cli", "argv": argv, "key": coeffs_key(e),
                                "cmd": cmd, "pass": pass_no})
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def op_count(ops: list[dict]) -> int:
    """Operations timed per repetition: a scan call times one per row."""
    return sum(op.get("rows", 1) for op in ops)


# -- checks -------------------------------------------------------------------------


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def _mpf_from_pair(pair):
    import mpmath

    man, exp = pair
    return mpmath.ldexp(mpmath.mpf(man), exp)


def check_rep(workload: str, ops: list[dict], results: list[dict], goldens: dict) -> dict:
    """Check one repetition's outputs; return latencies and failures.

    An operation is a scan row, a verify case (or the float-tier call) or
    one CLI call.  Returns ``{"lat": [...], "failed": int, "attempted":
    int, "problems": [...], "direct_bounds": [...]}``; ``lat`` holds the
    latency of every operation at the reference speed, failed or not.
    """
    lat: list[float] = []
    failed = 0
    problems: list[str] = []
    direct_bounds: list[float] = []
    coeff_outputs: dict[tuple, str] = {}

    def fail(msg):
        nonlocal failed
        failed += 1
        if len(problems) < 5:
            problems.append(msg)

    for op, res in zip(ops, results):
        if workload == "scan":
            stamps = res.get("row_times_ref", [])
            rows = op["rows"]
            lat.extend(stamps[:rows] + [res["t_ref"]] * (rows - len(stamps)))
            lines = res.get("out", "").split("\r\n")
            if res["code"] != 0 or len(lines) != rows + 2 or lines[0] != SCAN_HEADER:
                for _ in range(rows):
                    fail(f"scan r={op['r']} v={op['v']}: exit {res['code']} {res.get('err', '')[-200:]}")
                continue
            for n in range(rows):
                want = goldens["scan"].get(f"{op['r']},{op['v']},{SCAN_PREC},{n}")
                if sha(lines[n + 1]) != want:
                    fail(f"scan r={op['r']} v={op['v']} row n={n} differs from its golden")
            continue
        lat.append(res["t_ref"])
        problem = None
        if res["code"] != 0:
            problem = f"exit {res['code']} {res.get('err', '')[-200:]}"
        elif workload == "verify" and op["kind"] == "cli":
            try:
                rep = json.loads(res["out"])
                direct_bounds.append(float(rep["direct"]["error_bound"]))
                if rep["passed"] is not True:
                    problem = f"not passed: {res['out'][:200]}"
            except (ValueError, KeyError, TypeError):
                problem = f"unreadable report: {res['out'][:200]}"
        elif workload == "verify":
            import mpmath

            with mpmath.workdps(60):
                value = _mpf_from_pair(res["value"])
                bound = _mpf_from_pair(res["bound"])
                target = mpmath.mpf(op["target"][0]) / op["target"][1]
                if not (abs(value - mpmath.zeta(2)) <= bound and bound <= target):
                    problem = (f"zeta(2) not enclosed to {op['target']}: "
                               f"{mpmath.nstr(value, 20)} +- {mpmath.nstr(bound, 5)}")
        else:
            first = coeff_outputs.setdefault((op["key"], op["cmd"]), res["out"])
            if sha(res["out"]) != goldens["coeffs"].get(op["key"], {}).get(op["cmd"]):
                problem = "output differs from its golden"
            elif res["out"] != first:
                problem = "pass 2 output differs from pass 1"
        if problem:
            fail(f"{op.get('argv', [op['kind']])[0]} op {len(lat) - 1}: {problem}")
    attempted = len(lat)
    return {"lat": lat, "failed": failed, "attempted": attempted,
            "problems": problems, "direct_bounds": direct_bounds}
