#!/usr/bin/env python3
"""Every number three ways: exact decomposition, certified direct sum,
Monte Carlo integration.

The decomposition path could hide a bookkeeping bug; the direct sum could
hide a tail-bound bug; the sampler could hide a modeling bug.  They share
no code paths past the moment construction, so agreement is evidence.
"""

import mpmath

from zetalab import crosscheck, direct_sum_value, legendre_coeffs, mc_integral

print("Crosscheck reports (exact vs direct within certified bounds; exact vs")
print("Monte Carlo within 4 standard errors):")
for n, r, v in [(0, 3, 2), (1, 2, 1), (2, 3, 0)]:
    rep = crosscheck(legendre_coeffs(n), r, v, precision=30, samples=200_000, seed=42)
    print(
        f"  n={n} r={r} v={v}: exact={mpmath.nstr(rep.exact.value, 12)}"
        f"  direct={mpmath.nstr(rep.direct.value, 12)}"
        f"  mc={rep.mc.mean:.6f}±{rep.mc.stderr:.1e}"
        f"  -> {'PASS' if rep.passed else 'FAIL'}"
    )

print()
print("Certified direct summation adds an Euler-Maclaurin tail to an exact head")
print("and reports a bound on everything it dropped:")
for target in ("1e-6", "1e-10", "1e-14"):
    hv = direct_sum_value(legendre_coeffs(0), 3, 2, target)
    print(f"  target {target}: value={mpmath.nstr(hv.value, 16)}  bound={mpmath.nstr(hv.error_bound, 3)}")

print()
print("The sampler is a counter-based (SplitMix64) generator: same seed, same")
print("estimate, bit for bit; each sample's draws are fixed by its counters.")
a = mc_integral(legendre_coeffs(0), 3, 2, 100_000, seed=7)
b = mc_integral(legendre_coeffs(0), 3, 2, 100_000, seed=7)
print(f"  run 1: mean={a.mean!r}")
print(f"  run 2: mean={b.mean!r}")
print(f"  identical: {a == b}")
