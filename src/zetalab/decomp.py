"""Collapse the summed series into exact zeta-value combinations.

The top of the exact layer (``polys`` -> ``moments`` -> ``decomp``): every
number here is an int or a Fraction, and nothing here imports the numeric
layer (``verify``, mpmath, numpy).  Rationals serialize as str(Fraction).

``decompose`` turns sum_{k>=0} G(k), G = d^v/ds^v [M(s)**r], into
sum_j q_j * zeta(j) + q_0  with exact rational q's, via the partial
fractions of G.  They come straight from the moment: M(s) = sum_l
a_l/(s+l+1) is already a sum of simple poles, so the principal part of G
at each pole s = -m follows from the local Laurent expansion of M there
(no expanded summand, no pole search, no Taylor shift).  Then:

* a term b/(s+m)**j with j >= 2 sums to b * (zeta(j) - sum_{t<m} t**-j);
* the order-1 coefficients satisfy sum_m b_m = 0 (the summand decays at
  least like s**-2), so their individually divergent pieces telescope to
  the exact rational  -sum_m b_m * H_{m-1}.

Both steps run in integers, with one Fraction normalization per output
number instead of a gcd per operation: the principal parts are numerators
over one common denominator (A * lcm(1..mu-1)**(r-1))**r, with A the
common denominator of the polynomial and mu = deg + 1, and the harmonic
sums H_m^(j) are running integer sums over lcm(1..mu-1)**j.

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

from .moments import check_series_args
from .polys import Poly, legendre_coeffs

__all__ = [
    "lcm_upto",
    "ZetaCombination",
    "decompose",
    "DecompositionReport",
    "decomposition_report",
    "apery_report",
]


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
            q = Fraction(zeta[j])
            if q == 0:
                continue
            if j < 2:
                raise ValueError("zeta indices must be >= 2")
            items.append((j, q))
        return cls(zeta=tuple(items), constant=Fraction(constant))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.zeta)

    def coeff(self, j: int) -> Fraction:
        return self.as_dict().get(j, Fraction(0))

    @property
    def max_index(self) -> int:
        """Largest zeta index with nonzero coefficient (0 if none)."""
        return self.zeta[-1][0] if self.zeta else 0

    def scaled(self, c) -> "ZetaCombination":
        c = Fraction(c)
        return ZetaCombination.make({j: c * q for j, q in self.zeta}, c * self.constant)

    def common_denominator(self) -> int:
        """Smallest positive D clearing every coefficient to an integer."""
        return math.lcm(self.constant.denominator, *(q.denominator for _, q in self.zeta))

    def to_json_dict(self) -> dict:
        """Rationals as str(Fraction): "p/q" in lowest terms, "p" when q = 1."""
        return {
            "zeta": {str(j): str(q) for j, q in self.zeta},
            "constant": str(self.constant),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ZetaCombination":
        """Inverse of to_json_dict.  The input may come from a file on disk,
        so a rational that is not a string (a JSON number) raises TypeError."""

        def rational(text) -> Fraction:
            if not isinstance(text, str):
                raise TypeError(f"a rational must be a string, not {type(text).__name__}")
            return Fraction(text)

        zeta = {int(j): rational(q) for j, q in data["zeta"].items()}
        return cls.make(zeta, rational(data["constant"]))


def _principal_numerators(poly: Poly, r: int, v: int) -> tuple[dict[tuple[int, int], int], int]:
    """({(m, j): C}, D) with G = d^v/ds^v [M**r] = sum (C/D) / (s+m)**j.

    Near the pole s = -m of M = sum_l a_l/(s+l+1), with t = s + m,
    t*M = u(t) = a_{m-1} + sum_{i>=1} u_i t**i where u_i = sum_{p != m}
    a_{p-1} (-1)**(i-1) / (p-m)**i.  The principal part of M**r there is
    u**r mod t**r, and v derivatives map c/t**j to c (-1)**v (j)_v / t**(j+v).

    All of it runs in integers: A clears the denominators of the a's, and
    with L = lcm(1..mu-1) (mu = deg + 1, the farthest pole) and
    S = L**(r-1), every S/|p-m|**i is an integer, so U = A*S*u has integer
    coefficients.  U**r mod t**r then holds the numerators over the one
    denominator D = (A*S)**r.  Only nonzero C are kept.
    """
    cleared, A = poly.clear_denominators()
    # alpha[p] = A * a_{p-1}, the residue of A*M at s = -p
    alpha = [0, *cleared]
    mu = len(poly.coeffs)
    L = lcm_upto(mu - 1)
    S = L ** (r - 1)
    # inverse_powers[i-1][q-1] = S // q**i for 1 <= i < r, 1 <= q < mu
    inverse_powers = [[S // q**i for q in range(1, mu)] for i in range(1, r)]
    sign = -1 if v % 2 else 1
    numerators: dict[tuple[int, int], int] = {}
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
        ur = u
        for _ in range(r - 1):
            ur = [sum(map(operator.mul, ur[: k + 1], u[k::-1])) for k in range(r)]
        for k, c in enumerate(ur):
            if c:
                j = r - k
                numerators[(m, j + v)] = sign * math.prod(range(j, j + v)) * c
    return numerators, (A * S) ** r


def _principal_parts(poly: Poly, r: int, v: int) -> dict[tuple[int, int], Fraction]:
    """Nonzero partial-fraction coefficients {(m, j): c} of G = d^v/ds^v [M**r].

    G = sum c / (s+m)**j exactly (G is proper); see _principal_numerators.
    """
    numerators, denominator = _principal_numerators(poly, r, v)
    return {key: Fraction(c, denominator) for key, c in numerators.items()}


def decompose(poly: Poly, r: int, v: int) -> ZetaCombination:
    """Exact zeta-combination equal to (-1)**v * sum_{k>=0} G(k)."""
    poly = check_series_args(poly, r, v)
    numerators, denominator = _principal_numerators(poly, r, v)
    residues = sum(c for (_, j), c in numerators.items() if j == 1)
    if residues != 0:
        # decay >= 2 forces the order-1 coefficients to cancel; if they do
        # not, the arithmetic upstream is broken, so abort loudly
        raise RuntimeError(
            "internal invariant violation: order-1 residues sum to "
            f"{Fraction(residues, denominator)}, not 0"
        )
    # C/(s+m)**j sums to C zeta(j) - C H_{m-1}^(j), where the harmonic sum
    # H_m^(j) = sum_{t<=m} t**-j is harmonic[j][m] / L**j, L = lcm(1..mu-1),
    # kept as integer running sums up to m = mu - 1
    mu = len(poly.coeffs)
    L = lcm_upto(mu - 1)
    quotients = [L // t for t in range(1, mu)]
    top = r + v
    harmonic = {
        j: list(itertools.accumulate((q**j for q in quotients), initial=0))
        for j in range(1, top + 1)
    }
    zeta = dict.fromkeys(range(2, top + 1), 0)
    constant = 0  # over denominator * L**top
    for (m, j), c in numerators.items():
        if j > 1:
            zeta[j] += c
        constant -= c * harmonic[j][m - 1] * L ** (top - j)
    sign = -1 if v % 2 else 1
    return ZetaCombination.make(
        {j: Fraction(sign * q, denominator) for j, q in zeta.items()},
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
    n: int | None = None,
    combo: ZetaCombination | None = None,
) -> DecompositionReport:
    """Report for an arbitrary polynomial; n defaults to its degree.

    Pass a precomputed (e.g. cached) combination via `combo` to skip the
    decomposition.
    """
    if not isinstance(poly, Poly):
        poly = Poly(poly)
    if n is None:
        n = max(poly.degree, 0)
    if combo is None:
        combo = decompose(poly, r, v)
    d = combo.common_denominator()
    cleared = [q * d for _, q in combo.zeta] + [combo.constant * d]
    g = 0
    for x in cleared:
        g = math.gcd(g, x.numerator)
    if math.gcd(g, d) != 1 and any(x != 0 for x in cleared):
        raise RuntimeError(
            "internal invariant violation: cleared coefficients share a factor "
            "with the minimal denominator"
        )
    pole_power = r + v
    a = b = gg = None
    mismatch = False
    if (r, v) == (3, 2):
        a = combo.coeff(4) * d / 90
        b_frac = combo.coeff(5) * d
        g_frac = combo.constant * d
        if b_frac.denominator != 1 or g_frac.denominator != 1:
            raise RuntimeError(
                "internal invariant violation: D does not clear the zeta(5) "
                "coefficient and the constant"
            )
        b, gg = b_frac.numerator, g_frac.numerator
        mismatch = any(j not in (4, 5) for j, _ in combo.zeta)
    return DecompositionReport(
        n=n,
        r=r,
        v=v,
        combo=combo,
        D=d,
        A=a,
        B=b,
        G=gg,
        divides_lcm_n=lcm_upto(n) ** pole_power % d == 0,
        divides_lcm_n1=lcm_upto(n + 1) ** pole_power % d == 0,
        structure_mismatch=mismatch,
    )


def apery_report(n: int, r: int, v: int) -> DecompositionReport:
    """Report for the shifted-Legendre family member of degree n."""
    return decomposition_report(legendre_coeffs(n), r, v, n=n)
