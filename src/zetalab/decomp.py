"""The moment M(s) = integral_0^1 x**s R(x) dx, and the collapse of the summed
series into exact zeta-value combinations.

The top of the exact layer (``polys`` -> ``decomp``): every number here is
an int or a Fraction, and nothing here imports the numeric layer
(``verify``, mpmath, numpy).  Rationals serialize as str(Fraction).

The moment is a plain ``(num, den)`` pair of Poly (``moment_from_coeffs``),
canonical: den monic, num and den coprime, so equal functions give equal
pairs.  Its denominator is known before any arithmetic, Q = prod (s+l+1)
over the support a_l != 0, so no polynomial gcd is ever needed.

``decompose`` turns sum_{k>=0} G(k), G = d^v/ds^v [M(s)**r], into
sum_j q_j * zeta(j) + q_0  with exact rational q's, via the partial
fractions of G.  They come straight from the moment: M(s) = sum_l
a_l/(s+l+1) is already a sum of simple poles, so the principal part of G
at each pole s = -m follows from the local Laurent expansion of M there
(no expanded summand, no pole search, no Taylor shift).  That expansion
has two routes behind the one entry point ``_principal_numerators``:

* the shifted Legendre family (integer coefficients exactly
  (-1)**l C(n,l) C(n+l,l)) reads it off the product form of its moment,
  whose logarithm at each pole is a few differences of generalized
  harmonic numbers: O(n r) prefix sums, then O(r**2) column products
  over the poles;
* every other polynomial (``--coeffs`` input) takes the general route,
  which correlates the coefficients around each pole: O(deg**2 r).

Both stay on purpose.  The general route is the only one off the family,
and on the family it is the tests' independent oracle for the product
route; the two agree as exact rationals.  Then:

* a term b/(s+m)**j with j >= 2 sums to b * (zeta(j) - sum_{t<m} t**-j);
* the order-1 coefficients satisfy sum_m b_m = 0 (the summand decays at
  least like s**-2), so their individually divergent pieces telescope to
  the exact rational  -sum_m b_m * H_{m-1}.

Both steps run in integers, with one Fraction normalization per output
number instead of a gcd per operation: the principal parts are numerators
over one common denominator per route, and the harmonic sums H_m^(j) are
running integer sums over lcm(1..deg)**j.

The combination reported is c_v = (-1)**v * sum_k G(k): expanding the
series over k of M(z+k)**r around z = 0 as sum_v c_v (-z)**v / v! forces
the (-1)**v, and the choice makes c_1 for (r=2, n=0) equal +2*zeta(3),
matching the manifestly positive integrand it represents.  Confirmed
against the Monte Carlo oracle, not assumed.

The internal basis is zeta(j) only; pi-power conversions (pi^4 = 90*zeta(4))
happen at the report boundary.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .polys import Poly, legendre_coeffs

__all__ = [
    "moment_from_coeffs",
    "moment_closed_form",
    "lcm_upto",
    "ZetaCombination",
    "decompose",
    "DecompositionReport",
    "decomposition_report",
    "apery_report",
]


def _nonzero_poly(poly) -> Poly:
    if not isinstance(poly, Poly):
        poly = Poly(poly)
    if poly.is_zero:
        raise ValueError("zero polynomial has no moment")
    return poly


def check_integer(x, what: str) -> int:
    """x as an int; a float or any other non-integer raises TypeError."""
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"{what} must be an integer, not {type(x).__name__}") from None


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


def lcm_upto(n: int) -> int:
    """lcm(1, 2, ..., n), with the empty/singleton range (n <= 1) giving 1."""
    if n < 0:
        raise ValueError("lcm_upto requires n >= 0")
    return math.lcm(*range(1, n + 1))


@dataclass(frozen=True)
class ZetaCombination:
    """Exact value sum_j q_j * zeta(j) + constant, rational q's, j >= 2.

    Canonical form stores only nonzero coefficients, sorted by index, so
    equality is plain structural equality.
    """

    zeta: tuple[tuple[int, Fraction], ...]
    constant: Fraction

    @classmethod
    def make(cls, zeta: Mapping[int, Fraction], constant=0) -> "ZetaCombination":
        items = []
        for j in sorted(zeta):
            q = zeta[j]
            j = check_integer(j, "zeta index")
            if type(q) is not Fraction:
                q = Fraction(q)
            if q == 0:
                continue
            if j < 2:
                raise ValueError("zeta indices must be >= 2")
            items.append((j, q))
        if type(constant) is not Fraction:
            constant = Fraction(constant)
        return cls(zeta=tuple(items), constant=constant)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.zeta)

    def coeff(self, j: int) -> Fraction:
        return self.as_dict().get(j, Fraction(0))

    def common_denominator(self) -> int:
        """Smallest positive D clearing every coefficient to an integer."""
        return math.lcm(self.constant.denominator, *(q.denominator for _, q in self.zeta))

    def to_json_dict(self) -> dict:
        """Rationals as str(Fraction): "p/q" in lowest terms, "p" when q = 1."""
        return {
            "zeta": {str(j): str(q) for j, q in self.zeta},
            "constant": str(self.constant),
        }


def _principal_numerators(poly: Poly, r: int, v: int) -> tuple[dict[int, list[int]], int]:
    """({j: [C_1, ..., C_mu]}, D) with G = d^v/ds^v [M**r] = sum (C_m/D) / (s+m)**j.

    Near the pole s = -m, with t = s + m, the principal part of M**r is
    sum_{k<r} c_k t**(k-r); the v derivatives map c/t**j to
    c (-1)**v (j)_v / t**(j+v).  Both routes return the c_k as columns over
    the poles m = 1..mu (mu = deg + 1), column k already times its
    derivative factor, so it is order r+v-k's numerators as they stand,
    zero where a pole has no such term.  _legendre_laurent serves the
    shifted Legendre family and _correlation_laurent every other
    polynomial, each over its own common denominator D.
    """
    cleared, A = poly.clear_denominators()
    sign = -1 if v % 2 else 1
    # column k holds the coefficient of t**-j, j = r - k: order j + v after v derivatives
    factors = [sign * math.prod(range(j, j + v)) for j in range(r, 0, -1)]
    if A == 1 and _is_shifted_legendre(cleared):
        columns, denominator = _legendre_laurent(cleared, r, factors)
    else:
        columns, denominator = _correlation_laurent(cleared, A, r, factors)
    return {r + v - k: column for k, column in enumerate(columns)}, denominator


def _is_shifted_legendre(a: list[int]) -> bool:
    """Whether a_l = (-1)**l C(n,l) C(n+l,l) for n = len(a) - 1.

    Walks a_{l+1} (l+1)**2 = -a_l (n-l)(n+l+1) from a_0 = 1 and stops at the
    first mismatch, so most other polynomials exit at a_0 or a_1.
    """
    n = len(a) - 1
    return a[0] == 1 and all(
        b * (l + 1) ** 2 == -c * (n - l) * (n + l + 1)
        for l, (c, b) in enumerate(itertools.pairwise(a))
    )


def moment_closed_form(n: int) -> tuple[Poly, Poly]:
    """Moment of the degree-n shifted Legendre polynomial, product form:

        M_n(s) = (-1)**n * s(s-1)...(s-n+1) / ((s+1)(s+2)...(s+n+1))

    The numerator's roots 0..n-1 are not poles and the denominator is monic,
    so the pair is canonical and equals moment_from_coeffs(legendre_coeffs(n)).
    No runtime path calls it: it is the identity _legendre_laurent rests on,
    kept checked against the coefficient sum, since naive transcriptions of
    the product form are easy to get wrong off by one.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    num, den = [(-1) ** n], [1]
    for j in range(n):
        num = _times_linear(num, -j)
    for j in range(1, n + 2):
        den = _times_linear(den, j)
    return Poly(num), Poly(den)


def _legendre_laurent(a: list[int], r: int, factors: list[int]) -> tuple[list[list[int]], int]:
    """Principal parts of M**r for the shifted Legendre coefficients a, from the product form.

    M = (-1)**n prod_{k<n} (s-k) / prod_{k=1}^{n+1} (s+k) (moment_closed_form),
    so near s = -m (1 <= m <= n+1), with t = s + m, t*M = a_{m-1} exp(g(t))
    where, with H_N^(i) = sum_{t<=N} t**-i,

        i g_i = 2 H_{m-1}^(i) - H_{m+n-1}^(i) + (-1)**i H_{n+1-m}^(i).

    Then (t*M)**r = a_{m-1}**r exp(r g) = a_{m-1}**r sum_k e_k t**k with
    e_0 = 1 and k e_k = sum_{i=1}^k r i g_i e_{k-i}.  In integers: with
    L = lcm(1..2n), the H^(i) are running sums of (L/t)**i over L**i, so
    rg_i = r i L**i g_i and E_k = k! L**k e_k are integers with
    E_k = sum_i rg_i E_{k-i} (k-1)!/(k-i)!, and the coefficients of t**(k-r)
    are integers over (r-1)! L**(r-1).  The only divisions are L // t, exact
    by the choice of L.

    Every quantity is a column over the poles m = 1..n+1, one list
    operation per order instead of a loop per pole: H_{m-1}, H_{m+n-1} and
    H_{n+1-m} are the slices h[:n+1], h[n:] and h[n::-1] of one prefix sum,
    each E_k is a sum of column products, and column k of the result is
    a_{m-1}**r E_k times one integer, factors[k] times the scale of order k.
    O(n r) prefix sums, then O(r**2) column products: O(n r**2) in all.
    """
    n = len(a) - 1
    L = lcm_upto(2 * n)
    quotients = [L // t for t in range(1, 2 * n + 1)]
    # rg[i-1] = [r i L**i g_i at s = -m for m = 1..n+1], 1 <= i < r
    rg = []
    for i in range(1, r):
        h = list(itertools.accumulate((q**i for q in quotients), initial=0))
        r_sign = r if i % 2 == 0 else -r  # r (-1)**i
        rg.append([r * (2 * x - y) + r_sign * z for x, y, z in zip(h[: n + 1], h[n:], h[n::-1])])
    # E[k] is the column of E_k for 1 <= k < r; E_0 = 1 is left implicit
    E: list[list[int]] = [[]]
    for k in range(1, r):
        # the i = k term meets E_0 = 1; its weight is (k-1)!
        w = math.factorial(k - 1)
        column = rg[k - 1] if w == 1 else [w * x for x in rg[k - 1]]
        for i in range(1, k):
            w = math.perm(k - 1, i - 1)
            column = [c + w * x * y for c, x, y in zip(column, rg[i - 1], E[k - i])]
        E.append(column)
    ar = [x**r for x in a]
    # column k is a_{m-1}**r E_k times factors[k] (r-1)!/k! L**(r-1-k)
    scales = [f * math.perm(r - 1, r - 1 - k) * L ** (r - 1 - k) for k, f in enumerate(factors)]
    columns = [[scales[0] * x for x in ar]]
    columns += [[c * x * y for x, y in zip(ar, Ek)] for c, Ek in zip(scales[1:], E[1:])]
    return columns, math.factorial(r - 1) * L ** (r - 1)


def _correlation_laurent(
    cleared: list[int], A: int, r: int, factors: list[int]
) -> tuple[list[list[int]], int]:
    """Principal parts of M**r for any polynomial R = cleared / A.

    Near the pole s = -m of M = sum_l a_l/(s+l+1), with t = s + m,
    t*M = u(t) = a_{m-1} + sum_{i>=1} u_i t**i where u_i = sum_{p != m}
    a_{p-1} (-1)**(i-1) / (p-m)**i.  The principal part of M**r there is
    u**r mod t**r, by Miller's power recurrence: O(deg r + r**2) per pole.

    All of it runs in integers: A clears the denominators of the a's, and
    with L = lcm(1..mu-1) (mu = deg + 1, the farthest pole) and
    S = L**(r-1), every S/|p-m|**i is an integer, so U = A*S*u has integer
    coefficients.  U**r mod t**r then holds the coefficients over the one
    denominator (A*S)**r.  Poles with a_{m-1} = 0 are skipped.  As in
    _legendre_laurent, column k of the result holds the coefficients of
    t**(k-r) over the poles m = 1..mu, times factors[k]; a skipped pole
    reads 0.
    """
    # alpha[p] = A * a_{p-1}, the residue of A*M at s = -p
    alpha = [0, *cleared]
    mu = len(cleared)
    L = lcm_upto(mu - 1)
    S = L ** (r - 1)
    # inverse_powers[i-1][q-1] = S // q**i for 1 <= i < r, 1 <= q < mu
    inverse_powers = [[S // q**i for q in range(1, mu)] for i in range(1, r)]
    columns = [[0] * mu for _ in range(r)]
    for m in range(1, mu + 1):
        if not alpha[m]:
            continue
        below = alpha[m - 1:0:-1]  # alpha[p] for p = m-1, ..., 1, at q = m - p
        above = alpha[m + 1:]  # alpha[p] for p = m+1, ..., mu, at q = p - m
        u = [alpha[m] * S]
        for i, row in enumerate(inverse_powers, 1):
            left = sum(map(operator.mul, below, row))
            right = sum(map(operator.mul, above, row))
            # (-1)**(i-1) (p-m)**-i is (-1)**(i-1) q**-i above the pole, -q**-i below
            u.append((right if i % 2 else -right) - left)
        # P = u**r mod t**r by J.C.P. Miller's recurrence, from P'u = r u'P:
        # k u_0 P_k = sum_{i=1..k} ((r+1) i - k) u_i P_{k-i}, exact in integers
        u0 = u[0]
        ur = [u0**r]
        for k in range(1, r):
            total = sum(((r + 1) * i - k) * u[i] * ur[k - i] for i in range(1, k + 1))
            pk, remainder = divmod(total, k * u0)
            if remainder:
                raise RuntimeError(
                    f"internal invariant violation: {k} u_0 does not divide the order-{k} sum"
                )
            ur.append(pk)
        for column, factor, c in zip(columns, factors, ur):
            column[m - 1] = factor * c
    return columns, (A * S) ** r


def decompose(poly: Poly, r: int, v: int) -> ZetaCombination:
    """Exact zeta-combination equal to (-1)**v * sum_{k>=0} G(k)."""
    poly = check_series_args(poly, r, v)
    numerators, denominator = _principal_numerators(poly, r, v)
    residues = sum(numerators.get(1, ()))
    if residues != 0:
        # decay >= 2 forces the order-1 coefficients to cancel; if they do
        # not, the arithmetic upstream is broken, so abort loudly
        raise RuntimeError(
            "internal invariant violation: order-1 residues sum to "
            f"{Fraction(residues, denominator)}, not 0"
        )
    # C_m/(s+m)**j sums to C_m zeta(j) - C_m H_{m-1}^(j), where the harmonic
    # sum H_N^(j) = sum_{t<=N} t**-j is a running integer sum of (L/t)**j over
    # L**j, L = lcm(1..mu-1); the constant, over denominator * L**top, is minus
    # each order's numerators dotted with its H_0..H_{mu-1}
    mu = len(poly.coeffs)
    L = lcm_upto(mu - 1)
    quotients = [L // t for t in range(1, mu)]
    top = r + v
    constant = 0
    for j, cs in numerators.items():
        harmonic = itertools.accumulate((q**j for q in quotients), initial=0)
        constant -= sum(map(operator.mul, cs, harmonic)) * L ** (top - j)
    sign = -1 if v % 2 else 1
    return ZetaCombination.make(
        {j: Fraction(sign * sum(cs), denominator) for j, cs in numerators.items() if j > 1},
        Fraction(sign * constant, denominator * L**top),
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Cleared-denominator view of one decomposition.

    D is the smallest positive integer clearing every zeta coefficient and
    the constant; it is the denominator of the classical display
    (A*pi^4 + B*zeta(5) + G) / D for the r=3, v=2 family.  A is the pi^4
    coefficient D*q_4/90 (an exact rational; the 90 from pi^4 = 90*zeta(4)
    does not always cancel, e.g. at n = 1 and n = 3), B = D*q_5 and
    G = D*q_0 are integers.  A, B, G are populated only for the
    (r, v) = (3, 2) shape.  structure_mismatch flags any coefficient
    outside {zeta(4), zeta(5), constant} for that shape instead of
    discarding it.
    """

    n: int
    r: int
    v: int
    combo: ZetaCombination
    D: int
    A: Fraction | None
    B: int | None
    G: int | None
    divides_lcm_n: bool
    divides_lcm_n1: bool
    structure_mismatch: bool

    def to_json_dict(self) -> dict:
        d = self.combo.to_json_dict()
        return {
            "n": self.n,
            "r": self.r,
            "v": self.v,
            "zeta": d["zeta"],
            "constant": d["constant"],
            "A": str(self.A) if self.A is not None else None,
            "B": str(self.B) if self.B is not None else None,
            "G": str(self.G) if self.G is not None else None,
            "D": str(self.D),
            "div_lcm_n": self.divides_lcm_n,
            "div_lcm_n1": self.divides_lcm_n1,
            "structure_mismatch": self.structure_mismatch,
        }


def decomposition_report(
    poly: Poly,
    r: int,
    v: int,
    combo: ZetaCombination | None = None,
) -> DecompositionReport:
    """Report for an arbitrary polynomial; its n is the degree (0 for a constant).

    Pass a precomputed (e.g. cached) combination via `combo` to skip the
    decomposition.
    """
    if not isinstance(poly, Poly):
        poly = Poly(poly)
    n = max(poly.degree, 0)
    if combo is None:
        combo = decompose(poly, r, v)
    d = combo.common_denominator()
    cleared = [q.numerator * (d // q.denominator) for _, q in combo.zeta]
    cleared.append(combo.constant.numerator * (d // combo.constant.denominator))
    if math.gcd(*cleared, d) != 1 and any(cleared):
        raise RuntimeError(
            "internal invariant violation: cleared coefficients share a factor "
            "with the minimal denominator"
        )
    pole_power = r + v
    a = b = gg = None
    mismatch = False
    if (r, v) == (3, 2):
        at = dict(zip((j for j, _ in combo.zeta), cleared))
        a, b, gg = Fraction(at.get(4, 0), 90), at.get(5, 0), cleared[-1]
        mismatch = any(j not in (4, 5) for j in at)
    return DecompositionReport(
        n=n,
        r=r,
        v=v,
        combo=combo,
        D=d,
        A=a,
        B=b,
        G=gg,
        divides_lcm_n=pow(lcm_upto(n), pole_power, d) == 0,
        divides_lcm_n1=pow(lcm_upto(n + 1), pole_power, d) == 0,
        structure_mismatch=mismatch,
    )


def apery_report(n: int, r: int, v: int) -> DecompositionReport:
    """Report for the shifted-Legendre family member of degree n."""
    return decomposition_report(legendre_coeffs(n), r, v)
