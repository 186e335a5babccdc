"""Exact rational functions in one variable s.

A :class:`RationalFunction` is a ratio of two :class:`~zetalab.polys.Poly`
values kept in canonical form: monic denominator, numerator and denominator
coprime.  Equality of canonical forms is coefficient-wise equality.

Common factors are cancelled with a subresultant polynomial remainder
sequence over the integers, which keeps intermediate coefficient growth
under control (naive rational Euclid blows up badly at the degrees this
package routinely reaches).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polys import Poly

__all__ = ["RationalFunction"]


# ---------------------------------------------------------------------------
# integer polynomial gcd (subresultant PRS)
# ---------------------------------------------------------------------------


def _content(c: list[int]) -> int:
    g = 0
    for x in c:
        g = math.gcd(g, x)
        if g == 1:
            break
    return g


def _primitive(c: list[int]) -> list[int]:
    g = _content(c)
    if g == 0:
        return []
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)**(deg a - deg b + 1) * a  mod  b."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    scale = len(a) - 1 - db + 1  # how many lb factors prem must carry
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        lead = r[-1]
        r = [lb * x for x in r]
        shift = dr - db
        for j, bx in enumerate(b):
            r[shift + j] -= lead * bx
        _trim(r)
        scale -= 1
    if r and scale > 0:
        # degree dropped by more than one in some step; pad the missing
        # lb factors so exact subresultant divisions stay exact
        f = lb**scale
        r = [f * x for x in r]
    return r


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer polynomials (positive leading coeff)."""
    a = _trim(list(a))
    b = _trim(list(b))
    if not a:
        return _primitive(b)
    if not b:
        return _primitive(a)
    cont = math.gcd(_content(a), _content(b))
    r0, r1 = _primitive(a), _primitive(b)
    if len(r0) < len(r1):
        r0, r1 = r1, r0
    g, h = 1, 1
    while len(r1) > 1:
        d = len(r0) - len(r1)
        r2 = _pseudo_rem(r0, r1)
        if not r2:
            out = _primitive(r1)
            return [cont * x for x in out] if cont > 1 else out
        denom = g * h**d
        r2 = [x // denom for x in r2]
        g = r1[-1]
        if d == 1:
            h = g
        elif d > 1:
            h = g**d // h ** (d - 1)
        r0, r1 = r1, r2
    # remainder sequence ended in a nonzero constant: the gcd is trivial
    return [cont] if cont > 1 else [1]


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (1 if coprime)."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    ai, _ = a.clear_denominators()
    bi, _ = b.clear_denominators()
    return Poly(_int_poly_gcd(ai, bi)).monic()


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Ratio of rational-coefficient polynomials, canonical form.

    Invariants: denominator monic, gcd(numerator, denominator) = 1.
    """

    __slots__ = ("num", "den")

    num: Poly
    den: Poly

    def __init__(self, num: Poly, den: Poly = Poly([1]), *, _normalized: bool = False):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if not _normalized:
            num, den = self._reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
        if num.is_zero:
            return Poly(), Poly([1])
        g = _poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        return num, den

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Poly([c]), Poly([1]), _normalized=True)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def decay_degree(self) -> int:
        """deg(den) - deg(num): order of vanishing at s = infinity."""
        return self.den.degree - self.num.degree

    def __call__(self, x) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"evaluation at pole s = {x}")
        return self.num(x) / d

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        g = _poly_gcd(self.den, other.den)
        if g.degree > 0:
            da = self.den.exact_div(g)
            db = other.den.exact_div(g)
            num = self.num * db + other.num * da
            den = self.den * db
        else:
            num = self.num * other.den + other.num * self.den
            den = self.den * other.den
        return RationalFunction(num, den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num.scale(Fraction(other)), self.den)
        # cross-cancel so the final product needs no further gcd
        g1 = _poly_gcd(self.num, other.den)
        g2 = _poly_gcd(other.num, self.den)
        n1 = self.num.exact_div(g1) if g1.degree > 0 else self.num
        d2 = other.den.exact_div(g1) if g1.degree > 0 else other.den
        n2 = other.num.exact_div(g2) if g2.degree > 0 else other.num
        d1 = self.den.exact_div(g2) if g2.degree > 0 else self.den
        num = n1 * n2
        den = d1 * d2
        if num.is_zero:
            return RationalFunction(Poly(), Poly([1]), _normalized=True)
        lead = den.leading
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        return RationalFunction(num, den, _normalized=True)

    __rmul__ = __mul__

    def __pow__(self, r: int) -> "RationalFunction":
        if r < 0:
            raise ValueError("negative rational-function power")
        # num, den stay coprime under powering; denominator stays monic
        return RationalFunction(self.num**r, self.den**r, _normalized=True)

    def derivative(self, v: int = 1) -> "RationalFunction":
        """Exact v-th derivative (quotient rule); v = 0 is the identity."""
        if v < 0:
            raise ValueError("derivative order must be >= 0")
        f = self
        for _ in range(v):
            f = f._derivative_once()
        return f

    def _derivative_once(self) -> "RationalFunction":
        n, d = self.num, self.den
        if d.degree == 0:
            return RationalFunction(n.derivative(), d, _normalized=True)
        dp = d.derivative()
        c = _poly_gcd(d, dp)  # repeated-factor part
        e = d.exact_div(c)  # squarefree part, shares no root with result
        f = dp.exact_div(c)
        num = n.derivative() * e - n * f
        den = c * (e * e)
        # num is coprime to den already (roots of e do not kill num), so a
        # plain monic rescale suffices
        if num.is_zero:
            return RationalFunction(Poly(), Poly([1]), _normalized=True)
        lead = den.leading
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        return RationalFunction(num, den, _normalized=True)

