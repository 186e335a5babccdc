"""The exact kernels as plain ``Fraction`` code, kept as test references.

The library computes these with integer arithmetic over one common
denominator.  These are the straightforward spellings, with one ``Fraction``
operation (and its gcd) per term; the tests require the library to return
``==`` results.

The direct-sum references work on the expanded summand
G = d^v/ds^v [M**r], which the library never forms: it reads everything off
the moment M = N/Q.  Here G_v = N_v / Q**(r+v) with N_0 = N**r and the
quotient rule N_{k+1} = N_k' Q - (r+k) N_k Q', which is the plain rule with
the common factor Q**(r+k-1) cancelled.  The pair stays canonical: Q**(r+v)
is monic, and at each (simple) root of Q, N_{k+1} = -(r+k) N_k Q' != 0, so
by induction N_v shares no root with Q.

``library_principal_parts`` reads the library's integer principal parts
in the ``{(m, j): c}`` form of ``principal_parts``, so the two compare with
``==``.

``report_fields`` clears a combination's coefficients as one ``Fraction``
product each; the library's report clears them in integers.

``shifted_chebyshev`` is the Monte Carlo oracle's conversion to the
Chebyshev basis shifted to [0, 1] by Horner's rule, one ``Fraction`` step
per coefficient and term; the library reads the same rationals off a
closed binomial sum in integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from zetalab import Poly, ZetaCombination, moment_from_coeffs
from zetalab.decomp import _principal_numerators, check_series_args, lcm_upto
from zetalab.verify import (
    _TWO_PI_DEN,
    _TWO_PI_NUM,
    _cauchy_bound,
    _exact_quotient,
    _head_sum,
    _moment_expansion,
)


def chebyshev_weights(n: int) -> list[int]:
    """Integer weights d_0..d_n of the accelerated alternating series."""
    t = Fraction(1, n)
    acc = t
    out = [1]  # d_0 = n * t_0 = 1
    for i in range(n):
        t = t * 4 * (n + i) * (n - i) / ((2 * i + 1) * (2 * i + 2))
        acc += t
        d = acc * n
        if d.denominator != 1:
            raise RuntimeError(f"weight d_{i + 1} = {d} is not an integer")
        out.append(d.numerator)
    return out


def zeta_rational(j: int, digits: int) -> tuple[Fraction, Fraction]:
    """(rational approximation of zeta(j), certified truncation bound)."""
    n = int((digits * math.log(10) + math.log(6)) / math.log(3 + math.sqrt(8))) + 3
    d = chebyshev_weights(n)
    dn = d[n]
    s = Fraction(0)
    for k in range(n):
        term = Fraction(d[k] - dn, (k + 1) ** j)
        s += term if k % 2 == 0 else -term
    pref = Fraction(2 ** (j - 1), 2 ** (j - 1) - 1)
    value = -s * pref / dn
    bound = 3 * Fraction(1000, 5828) ** n * pref
    return value, bound


def principal_parts_upto(poly: Poly, r: int, v_max: int) -> list[dict[tuple[int, int], Fraction]]:
    """[principal_parts(poly, r, v) for v = 0..v_max], from one set of Laurent coefficients.

    Near s = -m, M**r = sum_k ur_k (s+m)**(k-r) + ..., and only the factor
    (j)_v of the v-th derivative depends on v, so u and u**r are built once.
    """
    support = [(l + 1, a) for l, a in enumerate(poly.coeffs) if a != 0]
    out: list[dict[tuple[int, int], Fraction]] = [{} for _ in range(v_max + 1)]
    for m, a_m in support:
        u = [a_m] + [Fraction(0)] * (r - 1)
        for p, a in support:
            if p != m:
                inv = Fraction(1, p - m)
                b = a * inv
                for i in range(1, r):
                    u[i] += b
                    b *= -inv
        ur = [Fraction(1)] + [Fraction(0)] * (r - 1)
        for _ in range(r):
            ur = [sum(ur[i] * u[k - i] for i in range(k + 1)) for k in range(r)]
        for v, parts in enumerate(out):
            sign = -1 if v % 2 else 1
            for k, c in enumerate(ur):
                if c:
                    j = r - k
                    parts[(m, j + v)] = sign * math.prod(range(j, j + v)) * c
    return out


def principal_parts(poly: Poly, r: int, v: int) -> dict[tuple[int, int], Fraction]:
    """{(m, j): c} with G = d^v/ds^v [M**r] = sum c / (s+m)**j."""
    return principal_parts_upto(poly, r, v)[v]


def library_principal_parts(poly: Poly, r: int, v: int) -> dict[tuple[int, int], Fraction]:
    """The library's principal parts (decomp._principal_numerators) in the
    form principal_parts returns: {(m, j): c}, nonzero c only."""
    numerators, denominator = _principal_numerators(poly, r, v)
    return {
        (m, j): Fraction(c, denominator)
        for j, cs in numerators.items()
        for m, c in enumerate(cs, 1)
        if c
    }


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


# the Legendre grids ask for the same few hundred harmonic sums again and again
_harmonic = functools.cache(generalized_harmonic)


def collapse(parts: dict[tuple[int, int], Fraction], v: int) -> ZetaCombination:
    """(-1)**v * sum_k G(k) from G's principal parts, one harmonic sum per term."""
    sign = -1 if v % 2 else 1
    zeta: dict[int, Fraction] = {}
    constant = Fraction(0)
    for (m, j), c in parts.items():
        if j == 1:
            constant -= c * _harmonic(m - 1, 1)
        else:
            zeta[j] = zeta.get(j, Fraction(0)) + c
            constant -= c * _harmonic(m - 1, j)
    return ZetaCombination.make({j: sign * q for j, q in zeta.items()}, sign * constant)


def report_fields(combo: ZetaCombination, n: int, r: int, v: int) -> dict:
    """decomposition_report's cleared view, one Fraction product per coefficient:
    D, A, B, G, both lcm divisibility flags and structure_mismatch."""
    d = combo.common_denominator()
    cleared = [q * d for _, q in combo.zeta] + [combo.constant * d]
    g = 0
    for x in cleared:
        g = math.gcd(g, x.numerator)
    assert math.gcd(g, d) == 1 or all(x == 0 for x in cleared)
    out = {"D": d, "A": None, "B": None, "G": None, "structure_mismatch": False}
    if (r, v) == (3, 2):
        b, gg = combo.coeff(5) * d, combo.constant * d
        assert b.denominator == gg.denominator == 1
        out.update(A=combo.coeff(4) * d / 90, B=b.numerator, G=gg.numerator)
        out["structure_mismatch"] = any(j not in (4, 5) for j, _ in combo.zeta)
    out["divides_lcm_n"] = lcm_upto(n) ** (r + v) % d == 0
    out["divides_lcm_n1"] = lcm_upto(n + 1) ** (r + v) % d == 0
    return out


def linear_product(shifts) -> Poly:
    """prod_c (s + c): the monic polynomial whose roots are the -c."""
    return math.prod((Poly([c, 1]) for c in shifts), start=Poly([1]))


def recombine(parts: dict[tuple[int, int], Fraction], poly: Poly, e: int) -> Poly:
    """The numerator over Q**e of sum c / (s+m)**j, with Q the moment's denominator.

    Q**e / (s+m)**j = Q**(e-j) * (Q / (s+m))**j, and Q / (s+m) is the product
    of the other linear factors, so the sum is a plain polynomial identity.
    """
    shifts = [l + 1 for l, a in enumerate(poly.coeffs) if a]
    q = linear_product(shifts)
    total = Poly()
    for (m, j), c in parts.items():
        cofactor = linear_product(p for p in shifts if p != m)
        total = total + q ** (e - j) * cofactor**j * c
    return total


def derivatives(num: Poly, q: Poly, e: int, v: int) -> list[Poly]:
    """[N_0..N_v] with d^k/ds^k [num / q**e] = N_k / q**(e+k)."""
    dq = q.derivative()
    out = [num]
    for k in range(v):
        out.append(out[-1].derivative() * q - out[-1] * dq * (e + k))
    return out


@dataclass(frozen=True)
class SummandSpec:
    """Series summand G(s) = d^v/ds^v [M(s)**r] = num/den for one (poly, r, v)."""

    poly: Poly
    r: int
    v: int
    summand: tuple[Poly, Poly]
    decay_degree: int


def summands(poly: Poly, r: int, v_max: int) -> list[SummandSpec]:
    """build_summand(poly, r, v) for v = 0..v_max, from one M**r."""
    poly = check_series_args(poly, r, v_max)
    num, q = moment_from_coeffs(poly)
    out = []
    for v, n in enumerate(derivatives(num**r, q, r, v_max)):
        den = den * q if v else q**r
        out.append(SummandSpec(poly, r, v, (n, den), den.degree - n.degree))
    return out


def build_summand(poly: Poly, r: int, v: int) -> SummandSpec:
    """G = d^v/ds^v [M**r] with its decay degree at s = infinity."""
    return summands(poly, r, v)[-1]


def evaluate(g: tuple[Poly, Poly], s) -> Fraction:
    """num(s) / den(s); a pole raises ZeroDivisionError."""
    num, den = g
    return num(s) / den(s)


def term_value(spec: SummandSpec, k: int) -> Fraction:
    """Exact G(k); safe for all k >= 0 (poles sit at negative integers)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return evaluate(spec.summand, k)


def series_partial_sum(spec: SummandSpec, K: int) -> Fraction:
    """Exact sum of G(k) for k = 0..K-1."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return sum((term_value(spec, k) for k in range(K)), Fraction(0))


def envelope_constant(spec: SummandSpec, K: int) -> Fraction:
    """Rational C with |G(s)| <= C / s**decay_degree for all s >= K - 1.

    G = N/D with D = Q**(r+v) monic, and every root of Q is a negative
    integer, so D has nonnegative coefficients and D(s) >= s**deg(D) for
    s >= 0.  |N(s)| <= Ntilde(s), where Ntilde takes absolute coefficients,
    and Ntilde(s)/s**deg(N) is nonincreasing for s > 0.  Hence
    C = Ntilde(K-1)/(K-1)**deg(N) works on [K-1, infinity).
    """
    if K < 2:
        raise ValueError("increase K: envelope anchor needs K >= 2")
    num = spec.summand[0]
    s0 = Fraction(K - 1)
    return sum(abs(c) * s0 ** (i - num.degree) for i, c in enumerate(num.coeffs))


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


def expansion_at_infinity(g: tuple[Poly, Poly], order: int) -> list[Fraction]:
    """e_0..e_order with g(s) = sum_i e_i s**-i near s = infinity.

    With y = 1/s, g = y**d * Nrev(y) / Drev(y), where d is the decay degree
    and the reversed coefficient lists have Drev(0) = 1 (g's denominator is
    monic); one exact power-series division gives e_d, e_{d+1}, ...
    """
    num, den = g
    nrev = num.coeffs[::-1]
    drev = den.coeffs[::-1]
    d = den.degree - num.degree
    q: list[Fraction] = []
    for k in range(order - d + 1):
        c = nrev[k] if k < len(nrev) else Fraction(0)
        for j in range(1, min(k, len(drev) - 1) + 1):
            c -= drev[j] * q[k - j]
        q.append(c)
    return [Fraction(0)] * d + q


def euler_maclaurin_sum(poly: Poly, r: int, v: int, tau: Fraction) -> tuple[Fraction, Fraction, int]:
    """verify._euler_maclaurin_sum's (S, bound, K), with Fraction loop state.

    The same choice of K, L and order p, from the same kernels; every
    correction and remainder is a Fraction, built, reduced and compared at
    each order, and each Bernoulli number comes fresh from mpmath.
    """
    d = r + v
    radius = 2 * len(poly.coeffs)
    g_max = _cauchy_bound(poly, r, v, radius)
    budget = tau / 4
    K = 8 * radius
    e: list[int] = []
    while True:
        rho_pow, k_pow = radius ** (d + 1), K ** (d + 1)
        upper = g_max.numerator * K
        lower = g_max.denominator * (K - radius)
        L = d
        while upper * budget.denominator * rho_pow * (L + K) > (
            lower * budget.numerator * k_pow * L
        ):
            L += 1
            rho_pow *= radius
            k_pow *= K
        truncation = Fraction(upper * rho_pow * (L + K), lower * k_pow * L)
        if len(e) <= L:
            e, den = _moment_expansion(poly, r, v, L)
        scale = den * K**L
        u = [c * K ** (L - i) for i, c in enumerate(e[d : L + 1], d)]
        rising = list(range(d, L + 1))
        corrections = Fraction(0)
        factorial = 1
        previous = None
        j = 1
        while True:
            factorial *= (2 * j - 1) * (2 * j)
            k_scale = scale * K ** (2 * j - 1)
            b_num, b_den = mpmath.bernfrac(2 * j)
            signed = sum(c * q for c, q in zip(u, rising))
            corrections += Fraction(b_num * signed, b_den * factorial * k_scale)
            absolute = sum(abs(c) * q for c, q in zip(u, rising))
            remainder = Fraction(
                4 * absolute * _TWO_PI_DEN ** (2 * j), k_scale * _TWO_PI_NUM ** (2 * j)
            )
            if remainder <= budget:
                lam = lcm_upto(L - 1)
                integral = sum(c * _exact_quotient(lam, i - 1) for i, c in enumerate(u, d))
                tail = Fraction(2 * K * integral + lam * sum(u), 2 * lam * scale) + corrections
                return _head_sum(poly, r, v, K) + tail, truncation + remainder, K
            if previous is not None and remainder >= previous:
                break
            previous = remainder
            rising = [c * (i + 2 * j - 1) * (i + 2 * j) for i, c in enumerate(rising, d)]
            j += 1
        K *= 2


def shifted_chebyshev(poly: Poly) -> np.ndarray:
    """c_0..c_n with poly(x) = sum_k c_k T_k(2x - 1), each Fraction rounded to float64.

    Horner's rule in the shifted basis: multiplying by x = (1 + T_1(2x-1))/2
    maps T_0 to (T_0 + T_1)/2 and T_k to T_k/2 + (T_{k-1} + T_{k+1})/4.
    A c_k past the float64 range rounds to +-inf.
    """
    c: list[Fraction] = []
    for a in reversed(poly.coeffs):
        shifted = [Fraction(0)] * (len(c) + 1)
        for k, ck in enumerate(c):
            shifted[k] += ck / 2
            if k:
                shifted[k - 1] += ck / 4
                shifted[k + 1] += ck / 4
            else:
                shifted[1] += ck / 2
        shifted[0] += a
        c = shifted
    return np.array([_to_float(ck) for ck in c], dtype=np.float64)


def _to_float(x: Fraction) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
