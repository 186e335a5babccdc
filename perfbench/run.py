"""zetalab benchmark: one workload, repeated in fresh interpreters.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {scan,verify,coeffs_cache} \
        --seed N --seconds T --trace {0,1} [--tiny]

The program under test is the checkout's ``src/zetalab``; nothing needs
to be installed.  Each repetition of the workload's fixed input set runs
in its own single-threaded child interpreter (see ``worker.py``), so the
zeta memo and the import start cold, as they do for a CLI user.
Repetitions continue while the next one is expected to end within
``--seconds``; five extra children only import ``zetalab.cli`` to time
set-up.

Every time in the end-to-end metrics is rescaled to a reference host speed
by ``speed.py``, which samples the speed of the shared host inside each
child while it works; the measured times are printed beside them.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` is the median
repetition, the latencies come from each operation's median over the
repetitions, and ``setup_s`` is the median over all children.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (measured times, not rescaled), with
``tracing.overhead_s`` = median traced minus median untraced wall time at
the reference speed.  Every
operation's output is checked on every repetition (``workloads.check_rep``).
The last line of stdout is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
TIME_LIMIT_S = 170  # the whole run, children included


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    env.pop("ZETALAB_CACHE", None)
    return env


def run_child(spec: dict, tmp: Path, tag: str, deadline: float) -> dict:
    """Run worker.py on spec; return its result with the set-up time added."""
    spec_path, result_path = tmp / f"{tag}.spec.json", tmp / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(5.0, deadline - time.monotonic())
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            env=child_env(),
            cwd=str(tmp),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag}: child still running after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{tag}: child exited {proc.returncode}: {proc.stderr[-1500:]}")
    result = json.loads(result_path.read_text())
    here = Path(result["zetalab_file"]).resolve()
    if SRC.resolve() not in here.parents:
        raise BenchError(f"{tag}: imported zetalab from {here}, not from {SRC}")
    result["setup"] = result["ready"] - spawned
    result["setup_ref"] = result["setup"] * speed.REF_CHUNK_S / result["setup_chunk"]
    return result


def tail_level(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it.

    With ten samples or fewer there is none; the level is then 100, the
    slowest sample.
    """
    return math.floor(100 * (1 - 10 / n)) if n > 10 else 100


def percentile(values: list[float], level: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return ordered[rank - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    if not (SRC / "zetalab" / "__init__.py").is_file():
        raise BenchError(f"no zetalab sources under {SRC}")
    goldens = workloads.load_goldens()
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT)))
    try:
        setups = [
            run_child({"probe": True}, tmp, f"probe{i}", deadline)
            for i in range(SETUP_PROBES)
        ]
        reps: list[dict] = []
        per_rep = workloads.op_count(workloads.build_ops(workload, seed, tiny, ""))
        min_reps = 2 if trace else max(workloads.MIN_REPS, math.ceil(11 / per_rep))
        t_reps = time.monotonic()
        while True:
            traced = trace and len(reps) % 2 == 1
            cache_path = str(tmp / f"rep{len(reps)}" / "cache.jsonl")
            ops = workloads.build_ops(workload, seed, tiny, cache_path)
            res = run_child(
                {"ops": ops, "trace": traced, "cache_path": cache_path},
                tmp, f"rep{len(reps)}", deadline,
            )
            res["traced"] = traced
            res["check"] = workloads.check_rep(workload, ops, res["ops"], goldens)
            reps.append(res)
            setups.append(res)
            elapsed = time.monotonic() - t_reps
            expected = statistics.median(r["wall"] + r["setup"] for r in reps)
            if len(reps) >= min_reps and elapsed + expected > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    summary = {
        "reps": len(plain),
        "rep_walls": [r["wall"] for r in plain],
        "setup_samples": len(setups),
        "setup_measured": statistics.median(r["setup"] for r in setups),
        "wall_measured": statistics.median(r["wall"] for r in plain),
        "speed_factor": statistics.median(r["speed_factor"] for r in plain),
        "attempted": sum(r["check"]["attempted"] for r in reps),
        "failed": sum(r["check"]["failed"] for r in reps),
        "problems": [p for r in reps for p in r["check"]["problems"]][:10],
        "run_s": time.monotonic() - started,
    }
    if not trace:
        # each operation's median over the repetitions, so that the
        # percentiles compare like with like
        per_op = [statistics.median(r["check"]["lat"][i] for r in plain) for i in range(per_rep)]
        level = tail_level(per_rep)
        summary.update(ops_timed=per_rep, tail_level=level)
        summary["e2e"] = {
            "setup_s": statistics.median(r["setup_ref"] for r in setups),
            "wall_s": statistics.median(r["wall_ref"] for r in plain),
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": percentile(per_op, level),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in plain) / 1024,
        }
    bounds = [b for r in reps for b in r["check"]["direct_bounds"]]
    digits = -math.log10(max(bounds)) if bounds else 0.0
    summary["verified_digits_min"] = digits
    if trace:
        traced = [r for r in reps if r["traced"]]
        layer = {
            name: statistics.median(r["trace"][name] for r in traced)
            for name in traced[0]["trace"]
        }
        layer["verify.verified_digits_min"] = digits
        layer["tracing.overhead_s"] = (
            statistics.median(r["wall_ref"] for r in traced)
            - statistics.median(r["wall_ref"] for r in plain)
        )
        summary["per_layer"] = layer
        spans = {}
        for r in traced:
            for span, t in r["self_times"].items():
                spans.setdefault(span, []).append(t)
        summary["self_times"] = {k: statistics.median(v) for k, v in spans.items()}
    return summary


def report(args, summary: dict, spec: dict) -> dict:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"{'  tiny' if args.tiny else ''}")
    print("inputs", json.dumps(workloads.input_stats(args.workload, args.seed, args.tiny)))
    print(f"repetitions {summary['reps']} untraced; {summary['setup_samples']} set-up samples; "
          f"run took {summary['run_s']:.1f} s")
    print("untraced repetition walls (s):", " ".join(f"{w:.3f}" for w in summary["rep_walls"]))
    print(f"measured: wall_s median {summary['wall_measured']:.4f} s, setup_s median "
          f"{summary['setup_measured']:.4f} s; host ran {summary['speed_factor']:.3f} times "
          "slower than the reference speed (median)")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"fail_ratio {failed / attempted:.4g} ({failed} of {attempted} operations)")
    for p in summary["problems"]:
        print("  FAILED:", p)
    if args.workload == "verify":
        print(f"verified_digits_min {summary['verified_digits_min']:.4f} digits "
              "(-log10 of the largest direct-path error_bound)")
    metrics = {}
    values = summary["per_layer"] if args.trace else summary["e2e"]
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        note = (f"  (p{summary['tail_level']} of {summary['ops_timed']} operations, "
                f"each the median of {summary['reps']} repetitions)") if name == "op_tail_s" else ""
        print(f"{name} {values[name]:.6g} {unit}{note}")
        metrics[name] = {"value": values[name], "unit": unit}
    if args.trace:
        ranked = sorted(summary["self_times"].items(), key=lambda kv: -kv[1])
        print("self time by span:", ", ".join(f"{k} {v:.3f} s" for k, v in ranked))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, summary, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
