"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored lowest degree first, as ``fractions.Fraction``; the
zero polynomial is the empty tuple (degree -1).  Construction strips trailing
zeros, so equal polynomials compare equal structurally.  Instances are
immutable and safe to share between tasks.

The bottom of the exact layer (``polys`` -> ``decomp``): it imports no
other zetalab module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["Poly", "legendre_coeffs", "integrate_poly_01"]

RationalLike = int | Fraction


class Poly:
    """Polynomial sum(c[l] * x**l) with exact rational coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c: RationalLike) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly()
        return Poly([c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact evaluation by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- integer-polynomial helpers -------------------------------------------

    def clear_denominators(self) -> tuple[list[int], int]:
        """Return (integer coefficient list, d) with self == intpoly / d."""
        d = math.lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (d // c.denominator) for c in self.coeffs], d


def legendre_coeffs(n: int) -> Poly:
    """Shifted Legendre polynomial on [0, 1], integer coefficients.

    Closed form a(n, l) = (-1)**l * C(n, l) * C(n+l, l); equals the n-th
    Rodrigues derivative (1/n!) d^n/dx^n [x^n (1-x)^n].
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return Poly([(-1) ** l * math.comb(n, l) * math.comb(n + l, l) for l in range(n + 1)])


def integrate_poly_01(p: Poly | Sequence[RationalLike]) -> Fraction:
    """Exact integral of p over [0, 1]: sum of c[l] / (l + 1)."""
    coeffs = p.coeffs if isinstance(p, Poly) else [Fraction(c) for c in p]
    return sum((c / (l + 1) for l, c in enumerate(coeffs)), Fraction(0))
