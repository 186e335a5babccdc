#!/usr/bin/env python3
"""The smallness scan behind the irrationality criterion.

If lcm(1..n)**(r+v) * |c_v(n)| eventually drops below 1 while the cleared
combination stays a nonzero integer, the zeta values involved cannot all
be rational.  The scan reports the trajectory of those quantities; it
asserts nothing about the limit.

The configuration r=2, v=1 is the zeta(3) story: |c(n)| decays like
(sqrt(2)-1)**(4n), fast enough to beat lcm(1..n)**3 ~ e**(3n), which is
exactly why zeta(3) is irrational.
"""

import math

import mpmath

from zetalab import rationality_criterion

records = rationality_criterion(2, 1, 16, precision=40)

target = (math.sqrt(2) - 1) ** 4
print("r=2, v=1 scan (the zeta(3) configuration), 40-digit precision")
print(f"asymptotic decay ratio (sqrt(2)-1)^4 = {target:.6f}")
print()
print(f"{'n':>2} {'|c(n)|':>14} {'lcm^3 |c|':>14} {'e^3n |c|':>14} {'ratio':>10}")
for rec in records:
    ratio = f"{float(rec.ratio_to_prev):.6f}" if rec.ratio_to_prev is not None else "-"
    print(
        f"{rec.n:>2} {mpmath.nstr(rec.abs_c, 6):>14} {mpmath.nstr(rec.lcm_scaled, 6):>14}"
        f" {mpmath.nstr(rec.exp_scaled, 6):>14} {ratio:>10}"
    )

print()
print("lcm^3-scaled values head to zero: the criterion succeeds for zeta(3).")
print()
print("Contrast with r=3, v=2 (the pi^4 / zeta(5) configuration): there the")
print("needed decay must beat lcm(1..n)^5 ~ e^(5n), and the scan shows the")
print("scaled values no longer rushing to zero:")
records52 = rationality_criterion(3, 2, 12, precision=40)
print()
print(f"{'n':>2} {'|c(n)|':>14} {'lcm^5 |c|':>14} {'e^5n |c|':>14}")
for rec in records52:
    print(
        f"{rec.n:>2} {mpmath.nstr(rec.abs_c, 6):>14} {mpmath.nstr(rec.lcm_scaled, 6):>14}"
        f" {mpmath.nstr(rec.exp_scaled, 6):>14}"
    )
print()
print("(whether that trajectory eventually dips below 1 is the open question")
print("this scanner exists to watch; it reports numbers, it proves nothing)")
