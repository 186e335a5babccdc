"""Moments M(s) = integral_0^1 x**s R(x) dx, summands, and tail bounds.

For a polynomial R with coefficients a_l, the moment is the exact rational
function ``M(s) = sum_l a_l / (s + l + 1)``.  The series of interest sums
``G(k)`` over integer k >= 0, where ``G = d^v/ds^v [M(s)**r]``.  Because
s = z + k, differentiating once in s and evaluating at integer points is the
same as differentiating the whole series in z term by term.

``build_summand`` expands G as one rational function (``M**r`` and v
quotient-rule derivatives, each reduced by a polynomial gcd).  No runtime
path uses it: ``decompose`` and ``direct_sum_value`` read everything off
the moment.  It stays as the independent reference that the tests and the
acceptance criteria compare those routes against, with ``term_value``,
``series_partial_sum`` and the integral-comparison ``tail_bound``.

The coefficient-sum moment is the ground truth here.  ``moment_closed_form``
is a product-form accelerator for the shifted-Legendre family, validated
against the coefficient sum (an extensively cross-checked identity, since
naive transcriptions of the product form are easy to get wrong off by one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polys import Poly
from .ratfunc import RationalFunction

__all__ = [
    "moment_from_coeffs",
    "moment_closed_form",
    "SummandSpec",
    "build_summand",
    "term_value",
    "series_partial_sum",
    "envelope_constant",
    "tail_bound",
]


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


def moment_from_coeffs(poly: Poly) -> RationalFunction:
    """Moment of x**s against poly on [0, 1]: sum_l a_l / (s + l + 1)."""
    poly = _nonzero_poly(poly)
    support = [(l, a) for l, a in enumerate(poly.coeffs) if a != 0]
    den = Poly([1])
    for l, _ in support:
        den = den * Poly([l + 1, 1])
    num = Poly()
    for l, a in support:
        partial = Poly([a])
        for lp, _ in support:
            if lp != l:
                partial = partial * Poly([lp + 1, 1])
        num = num + partial
    return RationalFunction(num, den)


def moment_closed_form(n: int) -> RationalFunction:
    """Moment of the degree-n shifted Legendre polynomial, product form:

        M_n(s) = (-1)**n * s(s-1)...(s-n+1) / ((s+1)(s+2)...(s+n+1))

    Exactly equal to moment_from_coeffs(legendre_coeffs(n)).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    num = Poly([(-1) ** n])
    for j in range(n):
        num = num * Poly([-j, 1])
    den = Poly([1])
    for j in range(1, n + 2):
        den = den * Poly([j, 1])
    return RationalFunction(num, den)


@dataclass(frozen=True)
class SummandSpec:
    """Series summand G(s) = d^v/ds^v [M(s)**r] for one (poly, r, v)."""

    poly: Poly
    r: int
    v: int
    summand: RationalFunction
    decay_degree: int


def build_summand(poly: Poly, r: int, v: int) -> SummandSpec:
    """Build G = d^v/ds^v [M**r] with its decay degree at s = infinity."""
    poly = check_series_args(poly, r, v)
    moment = moment_from_coeffs(poly)
    summand = (moment**r).derivative(v)
    decay = summand.decay_degree
    if decay < 2:
        raise ValueError(f"summand decays like s**-{decay}; series is not summable")
    return SummandSpec(poly=poly, r=r, v=v, summand=summand, decay_degree=decay)


def term_value(spec: SummandSpec, k: int) -> Fraction:
    """Exact G(k); safe for all k >= 0 (poles sit at negative integers)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return spec.summand(k)


def series_partial_sum(spec: SummandSpec, K: int) -> Fraction:
    """Exact sum of G(k) for k = 0..K-1."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return sum((term_value(spec, k) for k in range(K)), Fraction(0))


def envelope_constant(spec: SummandSpec, K: int) -> Fraction:
    """Rational C with |G(s)| <= C / s**decay_degree for all s >= K - 1.

    Writing G = N/D with D monic: D has nonnegative coefficients whenever
    every pole is at a negative integer, so D(s) >= s**deg(D) for s >= 0;
    and |N(s)| <= Ntilde(s) where Ntilde takes absolute coefficients, with
    Ntilde(s)/s**deg(N) nonincreasing for s > 0.  Hence
    C = Ntilde(K-1)/(K-1)**deg(N) works on [K-1, infinity).

    If D has a negative coefficient the envelope anchor must clear a
    Cauchy-style bound on the denominator's critical region instead, and C
    doubles.
    """
    if K < 2:
        raise ValueError("increase K: envelope anchor needs K >= 2")
    num, den = spec.summand.num, spec.summand.den
    if num.is_zero:
        return Fraction(0)
    s0 = Fraction(K - 1)
    if any(c < 0 for c in den.coeffs):
        threshold = 2 * sum(abs(c) for c in den.coeffs[:-1])
        if s0 < threshold:
            raise ValueError(
                f"increase K: envelope needs K - 1 >= {threshold} for this denominator"
            )
        c = 2 * num.abs_coeffs()(s0) / s0**num.degree
    else:
        c = num.abs_coeffs()(s0) / s0**num.degree
    return c


def tail_bound(spec: SummandSpec, K: int) -> Fraction:
    """Certified upper bound on |sum_{k >= K} G(k)|, by integral comparison.

    With C = envelope_constant(spec, K) and d = decay_degree:

        sum_{k >= K} |G(k)| <= C * integral_{K-1}^inf s**-d ds
                             = C / ((d - 1) * (K - 1)**(d - 1)).

    Requires K >= 2 so the comparison integral starts at a positive point.
    The bound is exact rational arithmetic end to end and is nonincreasing
    in K.
    """
    if K < 2:
        raise ValueError("increase K: tail bound needs K >= 2")
    c = envelope_constant(spec, K)
    d = spec.decay_degree
    return c / ((d - 1) * Fraction(K - 1) ** (d - 1))
