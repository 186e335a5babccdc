"""The moment M(s) = integral_0^1 x**s R(x) dx as an exact rational function.

For a polynomial R with coefficients a_l, the moment is
``M(s) = sum_l a_l / (s + l + 1)``.  The series of interest sums ``G(k)``
over integer k >= 0, where ``G = d^v/ds^v [M(s)**r]``; ``decompose`` and
``direct_sum_value`` read G off M without expanding it.

A rational function here is a plain ``(num, den)`` pair of
:class:`~zetalab.polys.Poly`, canonical: den monic, num and den coprime, so
equal functions give equal pairs.  Its denominator is known before any
arithmetic: it is Q = prod (s + l + 1) over the support a_l != 0, so no
polynomial gcd is ever needed.

The coefficient-sum moment is the ground truth here.  ``moment_closed_form``
spells out the product form for the shifted-Legendre family, validated
against the coefficient sum (an extensively cross-checked identity, since
naive transcriptions of the product form are easy to get wrong off by one).
It is not on any runtime path: it is the identity that
``decomp._legendre_laurent`` rests on when it reads the family's principal
parts off the product form's logarithm.
"""

from __future__ import annotations

from fractions import Fraction

from .polys import Poly

__all__ = ["moment_from_coeffs", "moment_closed_form"]


def _nonzero_poly(poly) -> Poly:
    if not isinstance(poly, Poly):
        poly = Poly(poly)
    if poly.is_zero:
        raise ValueError("zero polynomial has no moment")
    return poly


def check_series_args(poly, r: int, v: int) -> Poly:
    """Reject (poly, r, v) whose series sum_k G(k) is undefined; return poly as a Poly."""
    if r < 2:
        raise ValueError("series diverges: need r >= 2 (terms decay like 1/k at r = 1)")
    if v < 0:
        raise ValueError("v must be >= 0")
    return _nonzero_poly(poly)


def _times_linear(p: list[int], c: int) -> list[int]:
    """Coefficients of p(s) * (s + c), lowest degree first."""
    return [c * x + y for x, y in zip(p + [0], [0] + p)]


def _over_linear(p: list[int], c: int) -> list[int]:
    """Coefficients of p(s) / (s + c), which divides p by construction.

    Synthetic division; a non-zero remainder breaks the construction and raises.
    """
    acc, out = 0, []
    for x in reversed(p):
        acc = x - c * acc
        out.append(acc)
    if out.pop():
        raise RuntimeError(f"internal invariant violation: s + {c} does not divide the denominator")
    return out[::-1]


def moment_from_coeffs(poly: Poly) -> tuple[Poly, Poly]:
    """Moment of x**s against poly on [0, 1], as the canonical pair (num, den).

    den = Q = prod_{a_l != 0} (s + l + 1) and num = sum_l a_l Q/(s + l + 1),
    each quotient taken by exact division by one linear factor.  The pair is
    canonical by construction: Q is monic, and at each root s = -(l+1) of Q
    every quotient but the l-th vanishes, so
    num(-(l+1)) = a_l prod_{l' != l} (l' - l) != 0 and num shares no root
    with Q.
    """
    alpha, A = _nonzero_poly(poly).clear_denominators()
    roots = [l + 1 for l, a in enumerate(alpha) if a]
    den = [1]
    for c in roots:
        den = _times_linear(den, c)
    num = [0] * (len(den) - 1)
    for c in roots:
        num = [x + alpha[c - 1] * y for x, y in zip(num, _over_linear(den, c))]
    return Poly(Fraction(x, A) for x in num), Poly(den)


def moment_closed_form(n: int) -> tuple[Poly, Poly]:
    """Moment of the degree-n shifted Legendre polynomial, product form:

        M_n(s) = (-1)**n * s(s-1)...(s-n+1) / ((s+1)(s+2)...(s+n+1))

    The numerator's roots 0..n-1 are not poles and the denominator is monic,
    so the pair is canonical and equals moment_from_coeffs(legendre_coeffs(n)).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    num, den = [(-1) ** n], [1]
    for j in range(n):
        num = _times_linear(num, -j)
    for j in range(1, n + 2):
        den = _times_linear(den, j)
    return Poly(num), Poly(den)
