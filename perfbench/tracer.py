"""Timing wrappers installed around zetalab's public functions from outside.

``from .x import f`` binds ``f`` in the importing module when it is
imported, so a wrapper must replace every module attribute that holds the
original function, not only the one in the defining module.  ``install``
does that for every loaded ``zetalab`` module; methods are replaced on
their class.  A target missing from the program (renamed or removed by a
later change) is skipped and reads as 0 calls.

Each wrapped call is a span.  A span's inclusive time is its wall time;
its self time excludes the spans it encloses.  A call into a span of the
same name as the innermost open span (recursion, or ``harmonic`` calling
``generalized_harmonic``) is folded into the open span.  Tiny hot methods
such as ``Poly.__mul__`` are deliberately not wrapped: the wrapper cost
would swamp them.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

# (span name, module, attribute or Class.method)
TARGETS = (
    ("cli.main", "zetalab.cli", "main"),
    ("decomp.decompose", "zetalab.decomp", "decompose"),
    ("moments.build_summand", "zetalab.moments", "build_summand"),
    ("ratfunc.pow", "zetalab.ratfunc", "RationalFunction.__pow__"),
    ("ratfunc.derivative", "zetalab.ratfunc", "RationalFunction.derivative"),
    ("ratfunc.partial_fractions", "zetalab.ratfunc", "partial_fractions"),
    ("polys.shift", "zetalab.polys", "Poly.shift"),
    ("numtheory.harmonic", "zetalab.numtheory", "harmonic"),
    ("numtheory.harmonic", "zetalab.numtheory", "generalized_harmonic"),
    ("verify.eval_combination", "zetalab.verify", "eval_combination"),
    ("verify.zeta_value", "zetalab.verify", "zeta_value"),
    ("verify.crosscheck", "zetalab.verify", "crosscheck"),
    ("verify.direct_sum_value", "zetalab.verify", "direct_sum_value"),
    ("moments.tail_bound", "zetalab.moments", "tail_bound"),
    ("fastsum.certified_range_sum", "zetalab.fastsum", "certified_range_sum"),
    ("verify.mc_integral", "zetalab.verify", "mc_integral"),
    ("cache.get", "zetalab.cache", "DecompositionCache.get"),
    ("cache.put", "zetalab.cache", "DecompositionCache.put"),
)

# per-layer metric -> (span, statistic); statistic is "total" or "self"
TIMES = {
    "ratfunc.partial_fractions_s": ("ratfunc.partial_fractions", "total"),
    "polys.shift_s": ("polys.shift", "total"),
    "moments.build_summand_s": ("moments.build_summand", "total"),
    "ratfunc.pow_s": ("ratfunc.pow", "total"),
    "ratfunc.derivative_s": ("ratfunc.derivative", "total"),
    "decomp.decompose_s": ("decomp.decompose", "total"),
    "decomp.collapse_s": ("decomp.decompose", "self"),
    "verify.eval_combination_s": ("verify.eval_combination", "total"),
    "verify.zeta_value_s": ("verify.zeta_value", "total"),
    "verify.direct_sum_value_s": ("verify.direct_sum_value", "total"),
    "verify.direct_sum_self_s": ("verify.direct_sum_value", "self"),
    "moments.tail_bound_s": ("moments.tail_bound", "total"),
    "fastsum.certified_range_sum_s": ("fastsum.certified_range_sum", "total"),
    "verify.mc_integral_s": ("verify.mc_integral", "total"),
    "cache.get_s": ("cache.get", "total"),
    "cache.put_s": ("cache.put", "total"),
    "cli.self_s": ("cli.main", "self"),
}
CALLS = {
    "numtheory.harmonic_calls": "numtheory.harmonic",
    "verify.zeta_value_calls": "verify.zeta_value",
    "moments.tail_bound_calls": "moments.tail_bound",
}


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span name, time covered by child spans]
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counters: dict[str, float] = {}

    def _bump(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _peak(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- hooks that read sizes and counts off arguments and results -----------

    def _before(self, span, args, kwargs):
        if span == "verify.zeta_value":
            verify = sys.modules["zetalab.verify"]
            memo = getattr(verify, "_zeta_cache", {})
            key = (args + tuple(kwargs.values()))[:2]
            if key in memo:
                self._bump("zeta_memo_hits")
        elif span == "fastsum.certified_range_sum":
            call = dict(zip(("num", "den", "k_start", "k_end"), args), **kwargs)
            self._bump("fastsum.terms", max(0, call["k_end"] - call["k_start"]))

    def _after(self, span, out) -> None:
        if span == "moments.build_summand":
            g = out.summand
            self._peak("moments.summand_degree_max", g.den.degree)
            self._peak("moments.summand_coeff_bits_max", max(_coeff_bits(g.num), _coeff_bits(g.den)))
        elif span == "ratfunc.partial_fractions":
            self._peak("ratfunc.poles_max", len({t.pole for t in out.terms}))
            self._peak("ratfunc.pole_order_max", max((t.order for t in out.terms), default=0))
            self._bump("ratfunc.pf_terms_total", len(out.terms))
        elif span == "verify.mc_integral":
            self._bump("verify.mc_rejected", out.rejected)
        elif span == "cache.get":
            self._bump("cache_gets")
            if out is not None:
                self._bump("cache_hits")

    def wrap(self, span: str, fn):
        spans, stack = self.spans, self.stack
        stats = spans.setdefault(span, [0, 0.0, 0.0])
        before, after = self._before, self._after

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            before(span, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            after(span, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target, wherever a zetalab module holds a reference."""
        for span, module, attr in TARGETS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                continue
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = getattr(holder, name, None) if holder is not None else None
            if orig is None:
                continue
            wrapped = self.wrap(span, orig)
            if owner:
                setattr(holder, name, wrapped)
            else:
                for m in [m for n, m in sys.modules.items() if n.split(".")[0] == "zetalab"]:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)

    def metrics(self, cache_path: str | None = None) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, (span, stat) in TIMES.items():
            calls, total, self_t = self.spans.get(span, (0, 0.0, 0.0))
            out[metric] = total if stat == "total" else self_t
        for metric, span in CALLS.items():
            out[metric] = self.spans.get(span, (0,))[0]
        c = self.counters
        zeta_calls = out["verify.zeta_value_calls"]
        out["verify.zeta_memo_hit_ratio"] = c.get("zeta_memo_hits", 0) / zeta_calls if zeta_calls else 0.0
        gets = c.get("cache_gets", 0)
        out["cache.hit_ratio"] = c.get("cache_hits", 0) / gets if gets else 0.0
        out["cache.file_bytes"] = (
            os.path.getsize(cache_path) if cache_path and os.path.exists(cache_path) else 0
        )
        for name in ("fastsum.terms", "verify.mc_rejected", "moments.summand_degree_max",
                     "moments.summand_coeff_bits_max", "ratfunc.poles_max",
                     "ratfunc.pole_order_max", "ratfunc.pf_terms_total"):
            out[name] = c.get(name, 0)
        return out

    def self_times(self) -> dict[str, float]:
        return {span: s[2] for span, s in self.spans.items()}
