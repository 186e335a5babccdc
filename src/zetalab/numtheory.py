"""Small exact number-theory helpers: binomials, lcm ranges, harmonic sums.

Everything here is arbitrary precision end to end: integers are Python ints,
rationals are ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["binomial", "lcm_upto", "generalized_harmonic"]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); returns 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires n >= 0 and k >= 0")
    return math.comb(n, k)


def lcm_upto(n: int) -> int:
    """lcm(1, 2, ..., n), with the empty/singleton range (n <= 1) giving 1."""
    if n < 0:
        raise ValueError("lcm_upto requires n >= 0")
    out = 1
    for m in range(2, n + 1):
        out = math.lcm(out, m)
    return out


def generalized_harmonic(m: int, j: int) -> Fraction:
    """Exact sum of 1/t**j for t = 1..m; zero for m = 0."""
    if m < 0:
        raise ValueError("generalized_harmonic requires m >= 0")
    if j < 1:
        raise ValueError("generalized_harmonic requires j >= 1")
    total = Fraction(0)
    for t in range(1, m + 1):
        total += Fraction(1, t**j)
    return total

