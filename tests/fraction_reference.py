"""The exact kernels as plain ``Fraction`` code, kept as test references.

The library computes these with integer arithmetic over one common
denominator.  These are the straightforward spellings, with one ``Fraction``
operation (and its gcd) per term; the tests require the library to return
``==`` results.  The direct-sum references work on the expanded summand
G = d^v/ds^v [M**r] that ``build_summand`` builds, where the library reads
everything off the moment M.
"""

from __future__ import annotations

import math
from fractions import Fraction

from zetalab import Poly, RationalFunction, ZetaCombination, generalized_harmonic, harmonic


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


def principal_parts(poly: Poly, r: int, v: int) -> dict[tuple[int, int], Fraction]:
    """{(m, j): c} with G = d^v/ds^v [M**r] = sum c / (s+m)**j."""
    support = [(l + 1, a) for l, a in enumerate(poly.coeffs) if a != 0]
    sign = -1 if v % 2 else 1
    parts: dict[tuple[int, int], Fraction] = {}
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
        for k, c in enumerate(ur):
            if c:
                j = r - k
                parts[(m, j + v)] = sign * math.prod(range(j, j + v)) * c
    return parts


def collapse(parts: dict[tuple[int, int], Fraction], v: int) -> ZetaCombination:
    """(-1)**v * sum_k G(k) from G's principal parts, one harmonic sum per term."""
    sign = -1 if v % 2 else 1
    zeta: dict[int, Fraction] = {}
    constant = Fraction(0)
    for (m, j), c in parts.items():
        if j == 1:
            constant -= c * harmonic(m - 1)
        else:
            zeta[j] = zeta.get(j, Fraction(0)) + c
            constant -= c * generalized_harmonic(m - 1, j)
    return ZetaCombination.make({j: sign * q for j, q in zeta.items()}, sign * constant)



def expansion_at_infinity(g: RationalFunction, order: int) -> list[Fraction]:
    """e_0..e_order with g(s) = sum_i e_i s**-i near s = infinity.

    With y = 1/s, g = y**d * Nrev(y) / Drev(y), where d is the decay degree
    and the reversed coefficient lists have Drev(0) = 1 (g's denominator is
    monic); one exact power-series division gives e_d, e_{d+1}, ...
    """
    nrev = g.num.coeffs[::-1]
    drev = g.den.coeffs[::-1]
    d = g.decay_degree
    q: list[Fraction] = []
    for k in range(order - d + 1):
        c = nrev[k] if k < len(nrev) else Fraction(0)
        for j in range(1, min(k, len(drev) - 1) + 1):
            c -= drev[j] * q[k - j]
        q.append(c)
    return [Fraction(0)] * d + q
