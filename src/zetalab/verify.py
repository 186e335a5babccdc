"""High-precision numeric layer: certified zeta values, direct summation,
and a reproducible Monte Carlo oracle for the r-fold integrals.

Three independent evaluation paths cross-check each other:

1. exact decomposition -> ``eval_combination`` (zeta-basis, certified);
2. ``direct_sum_value``: the first K terms summed exactly, plus an
   Euler-Maclaurin tail read off the summand's expansion at s = infinity,
   with certified bounds on the dropped expansion terms and on the
   remainder; it never touches partial fractions or zeta values;
3. ``mc_integral``: plain uniform Monte Carlo over the unit cube.  The
   integrable singularities (log powers at the faces, the simple pole at
   the corner of the cube) keep the variance finite at desk scale, at the
   cost of the usual 1/sqrt(N) convergence.  No importance sampling: the
   oracle stays simple enough to trust.  R is evaluated in float64 from
   its coefficients in the Chebyshev basis shifted to [0, 1], converted
   exactly once, by Clenshaw's recurrence: the monomial coefficients of
   P_n grow like C(n,k) C(n+k,k) and cancel catastrophically.

Zeta values use the alternating-series acceleration with Chebyshev-derived
integer weights d_k (Borwein's method), built by an exact integer
recurrence.  The partial sum is one integer numerator over lcm(1..n)**j,
normalized once, and the truncation error is provably below
3 / ((3+sqrt(8))**n * |1 - 2**(1-j)|), so every returned value carries a
certified absolute error bound.

Randomness: Philox4x64 counter-based generator.  Sample chunk c of a run
with seed s draws from ``Philox(key = s + (c+1) * 2**64)``; chunk
boundaries are fixed, so serial and parallel evaluation orders produce
bit-identical results, and identical (samples, seed) always reproduce the
same estimate.

Working precision is the requested precision plus 10 guard digits (plus
whatever the coefficient magnitudes require); returned values keep their
guard digits and every conversion/rounding step is absorbed into the
certified error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mpf

from .decomp import ZetaCombination, decompose
from .moments import SummandSpec, build_summand, check_series_args, series_partial_sum
from .numtheory import lcm_upto
from .polys import Poly
from .ratfunc import RationalFunction

__all__ = [
    "HighPrecisionValue",
    "zeta_value",
    "eval_combination",
    "direct_sum_value",
    "MCEstimate",
    "mc_integral",
    "CrosscheckReport",
    "crosscheck",
    "shifted_series_value",
]

_MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class HighPrecisionValue:
    """A value with a certified absolute error bound (true value lies in
    [value - error_bound, value + error_bound])."""

    value: object  # mpmath.mpf
    error_bound: object  # mpmath.mpf, nonnegative
    dps: int

    def to_json_dict(self) -> dict:
        return {
            "value": mpmath.nstr(self.value, self.dps),
            "error_bound": mpmath.nstr(self.error_bound, 8),
        }


def _fraction_to_mpf(x: Fraction):
    return mpf(x.numerator) / mpf(x.denominator)


# ---------------------------------------------------------------------------
# certified zeta values
# ---------------------------------------------------------------------------

_zeta_cache: dict[tuple[int, int], HighPrecisionValue] = {}


def _chebyshev_weights(n: int) -> list[int]:
    """Integer weights d_0..d_n of the accelerated alternating series.

    d_i = sum_{k<=i} a_k with a_0 = 1 and the integer recurrence
    a_{k+1} = a_k * 4 (n+k)(n-k) / ((2k+1)(2k+2)); every division is exact.
    """
    a = 1
    out = [1]  # d_0 = a_0
    for i in range(n):
        a, rem = divmod(a * 4 * (n + i) * (n - i), (2 * i + 1) * (2 * i + 2))
        if rem:
            raise RuntimeError(
                f"internal invariant violation: weight d_{i + 1} is not an integer"
            )
        out.append(out[-1] + a)
    return out


def _zeta_rational(j: int, digits: int) -> tuple[Fraction, Fraction]:
    """(rational approximation of zeta(j), certified truncation bound).

    The alternating sum sum_k (-1)**k (d_k - d_n) / (k+1)**j is one integer
    numerator over L = lcm(1..n)**j, normalized once at the end.
    Truncation after n weights is below 3/((3+sqrt 8)**n (1-2**(1-j)));
    3 + sqrt(8) > 5828/1000 gives a rational upper bound on the error.
    """
    n = int((digits * math.log(10) + math.log(6)) / math.log(3 + math.sqrt(8))) + 3
    d = _chebyshev_weights(n)
    dn = d[n]
    lcm = lcm_upto(n)
    total = 0
    for k in range(n):
        term = (d[k] - dn) * (lcm // (k + 1)) ** j
        total += -term if k % 2 else term
    pref = Fraction(2 ** (j - 1), 2 ** (j - 1) - 1)
    # zeta(j) ~ -(total / lcm**j) * pref / dn, normalized once
    value = Fraction(-total * 2 ** (j - 1), lcm**j * (2 ** (j - 1) - 1) * dn)
    bound = 3 * Fraction(1000, 5828) ** n * pref
    return value, bound


def zeta_value(j: int, precision: int) -> HighPrecisionValue:
    """zeta(j) for integer j >= 2 with certified error <= 10**-precision.

    The value is carried at precision + 10 guard digits; the certified
    bound (truncation plus conversion rounding) lands well under the
    requested 10**-precision.
    """
    if j < 2:
        raise ValueError("zeta_value requires j >= 2")
    if precision < 10:
        raise ValueError("precision must be >= 10")
    key = (j, precision)
    if key in _zeta_cache:
        return _zeta_cache[key]
    working = precision + 10
    approx, trunc = _zeta_rational(j, working)
    with mpmath.workdps(working):
        val = _fraction_to_mpf(approx)
        err = _fraction_to_mpf(trunc) + mpf(10) ** (2 - working)
        if err > mpf(10) ** (-precision):
            raise RuntimeError(
                f"zeta({j}) error bound {mpmath.nstr(err, 5)} exceeds the "
                f"requested 1e-{precision}"
            )
    out = HighPrecisionValue(value=val, error_bound=err, dps=precision)
    _zeta_cache[key] = out
    return out


def _magnitude_digits(x: Fraction) -> int:
    if x == 0:
        return 0
    bits = abs(x.numerator).bit_length() - x.denominator.bit_length()
    return max(0, int(bits * 0.30103) + 1)


def eval_combination(combo: ZetaCombination, precision: int = 30) -> HighPrecisionValue:
    """Numeric value of sum q_j zeta(j) + q_0 with a propagated error bound.

    The zeta factors are requested with enough extra digits that the
    magnitude of the rational coefficients cannot erode the target
    precision (the scans hit combinations whose coefficients are ~e**(3n)
    while the value is nearly zero).
    """
    if precision < 10:
        raise ValueError("precision must be >= 10")
    mag = sum((abs(q) for _, q in combo.zeta), abs(combo.constant)) + 1
    boost = _magnitude_digits(mag) + 2
    working = precision + 10 + boost
    with mpmath.workdps(working):
        eps = mpf(10) ** (2 - working)
        total = _fraction_to_mpf(combo.constant)
        envelope = abs(total)
        err = mpf(0)
        for j, q in combo.zeta:
            z = zeta_value(j, precision + boost)
            qv = _fraction_to_mpf(q)
            total += qv * z.value
            envelope += abs(qv) * (abs(z.value) + z.error_bound)
            err += abs(qv) * z.error_bound
        err += (4 * len(combo.zeta) + 6) * eps * (envelope + 1)
    return HighPrecisionValue(value=total, error_bound=err, dps=precision)


# ---------------------------------------------------------------------------
# certified direct summation (the oracle path, independent of partial
# fractions)
# ---------------------------------------------------------------------------

# 2*pi > 6.2831853: a rational lower bound for the Euler-Maclaurin remainder
_TWO_PI_LOWER = Fraction(62831853, 10**7)


def _expansion_at_infinity(g: RationalFunction, order: int) -> list[Fraction]:
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


def _euler_maclaurin_sum(spec: SummandSpec, tau: Fraction) -> tuple[Fraction, Fraction, int]:
    """(S, bound, K) with |sum_{k>=0} G(k) - S| <= bound <= tau / 2.

    G = P + T splits at s = infinity into P = sum_{d<=i<=L} e_i s**-i and a
    remainder T.  S is the exact head sum_{k<K} G(k) plus the
    Euler-Maclaurin sum of P from K on, term by term over the powers:

        sum_{k>=K} k**-i = K**(1-i)/(i-1) + K**-i/2
                           + sum_{j<=p} B_2j/(2j)! (i)_2j-1 K**(1-i-2j) + R,
        |R| <= 4/(2 pi)**2p * (i)_2p-1 K**(1-i-2p),

    with (i)_q the rising factorial; the remainder bound follows Johansson,
    arXiv:1309.2877.  The poles of G lie at -m with 1 <= m <= mu = deg(poly) + 1,
    so with rho = 2 mu, |G| <= M = Ntilde(rho)/|D(-rho)| on |s| = rho
    (Ntilde takes absolute coefficients; D is monic with its roots at the
    -m, so |D(s)| >= |D(-rho)| there).  Cauchy's estimate gives
    |e_i| <= M rho**i, hence

        sum_{k>=K} |T(k)| <= M (rho/K)**(L+1) (1 + K/L) / (1 - rho/K).

    L is the least order that brings this under tau/4.  K starts at 8 rho
    and doubles until some p brings the remainder under tau/4 before the
    remainder bounds start to grow again.  Everything is exact rational
    arithmetic, so the bound covers all error.
    """
    g = spec.summand
    d = spec.decay_degree
    radius = 2 * (spec.poly.degree + 1)
    g_max = g.num.abs_coeffs()(radius) / abs(g.den(-radius))
    budget = tau / 4
    K = 8 * radius
    e: list[Fraction] = []
    while True:
        x = Fraction(radius, K)
        L = d
        while g_max * x ** (L + 1) * (1 + Fraction(K, L)) / (1 - x) > budget:
            L += 1
        truncation = g_max * x ** (L + 1) * (1 + Fraction(K, L)) / (1 - x)
        if len(e) <= L:
            e = _expansion_at_infinity(g, L)
        u = [e[i] / Fraction(K) ** i for i in range(d, L + 1)]  # e_i K**-i, i >= d
        rising = list(range(d, L + 1))  # (i)_2j-1 at j = 1
        corrections = Fraction(0)
        factorial = 1
        previous = None
        j = 1
        while True:
            factorial *= (2 * j - 1) * (2 * j)
            k_power = Fraction(1, K ** (2 * j - 1))
            b_num, b_den = mpmath.bernfrac(2 * j)
            signed = sum(ui * ri for ui, ri in zip(u, rising)) * k_power
            corrections += Fraction(b_num, b_den * factorial) * signed
            absolute = sum(abs(ui) * ri for ui, ri in zip(u, rising)) * k_power
            remainder = 4 * absolute / _TWO_PI_LOWER ** (2 * j)
            if remainder <= budget:
                integral = sum(ui * K / (i - 1) for i, ui in enumerate(u, d))
                tail = integral + sum(u) / 2 + corrections
                return series_partial_sum(spec, K) + tail, truncation + remainder, K
            if previous is not None and remainder >= previous:
                break
            previous = remainder
            rising = [ri * (i + 2 * j - 1) * (i + 2 * j) for i, ri in enumerate(rising, d)]
            j += 1
        K *= 2


def _direct_sum(spec: SummandSpec, tau: Fraction) -> tuple[HighPrecisionValue, int]:
    """direct_sum_value's result for spec, and the number K of exact terms."""
    if tau <= 0:
        raise ValueError("target_error must be positive")
    total, bound, K = _euler_maclaurin_sum(spec, tau)
    sign = -1 if spec.v % 2 else 1
    out_dps = max(15, _magnitude_digits(1 / bound) + _magnitude_digits(abs(total)) + 5)
    with mpmath.workdps(out_dps):
        val = _fraction_to_mpf(sign * total)
        err = _fraction_to_mpf(bound) * (1 + mpf(10) ** -8) + abs(val) * mpf(10) ** (
            1 - out_dps
        )
    return HighPrecisionValue(value=val, error_bound=err, dps=out_dps), K


def direct_sum_value(poly: Poly, r: int, v: int, target_error) -> HighPrecisionValue:
    """(-1)**v times the series sum, certified within target_error.

    An exact head of K terms plus an Euler-Maclaurin tail read off G's
    expansion at infinity, with rigorous bounds on both the dropped
    expansion terms and the remainder (see _euler_maclaurin_sum).  Every
    positive target is reachable.  target_error is anything Fraction()
    reads: an int, a str such as "1e-6", a float or a Fraction.  Fully
    independent of partial fractions and of zeta_value.
    """
    return _direct_sum(build_summand(poly, r, v), Fraction(target_error))[0]


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    """Uniform-sampling estimate: mean +/- stderr from `samples` draws.

    stderr is the sample standard deviation over sqrt(samples).  rejected
    counts redraws of samples that landed exactly on a singular point of
    the integrand (probability zero, possible in finite precision).
    Bit-for-bit reproducible from (samples, seed).
    """

    mean: float
    stderr: float
    samples: int
    seed: int
    rejected: int

    def to_json_dict(self) -> dict:
        return {
            "mean": repr(self.mean),
            "stderr": repr(self.stderr),
            "samples": self.samples,
            "seed": self.seed,
            "rejected": self.rejected,
        }


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    key = (int(seed) & (2**64 - 1)) + ((chunk + 1) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _shifted_chebyshev(poly: Poly) -> np.ndarray:
    """c_0..c_n with poly(x) = sum_k c_k T_k(2x - 1), converted exactly, then rounded.

    Horner's rule in the shifted basis: multiplying by x = (1 + T_1(2x-1))/2
    maps T_0 to (T_0 + T_1)/2 and T_k to T_k/2 + (T_{k-1} + T_{k+1})/4.
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
    return np.array([float(ck) for ck in c], dtype=np.float64)


def _clenshaw(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(2x - 1) at every entry of x, by Clenshaw's recurrence.

    The rounding error is about eps * sum |c_k|, which stays O(1) for
    polynomials such as P_n whose monomial coefficients are huge and cancel.
    """
    y = 2.0 * x - 1.0
    b1 = np.zeros_like(y)
    b2 = np.zeros_like(y)
    for ck in c[:0:-1]:
        b1, b2 = ck + 2.0 * y * b1 - b2, b1
    return c[0] + y * b1 - b2


def mc_integral(
    poly: Poly,
    r: int,
    v: int,
    z: float = 0.0,
    samples: int = 100_000,
    seed: int = 0,
) -> MCEstimate:
    """Uniform Monte Carlo estimate of the r-fold cube integral

        int (x1...xr)**z (-log(x1...xr))**v / (1 - x1...xr) * prod R(xi) dx.

    z >= 0 keeps all poles outside the cube.  Samples that hit a singular
    point exactly (product equal to 1, always; product equal to 0 when a
    log power makes the faces singular) are rejected and redrawn from the
    same substream; the count is reported.
    """
    poly = check_series_args(poly, r, v)
    z = float(z)
    if z < 0:
        raise ValueError("z must be >= 0 (negative z moves poles into range)")
    if samples < 10**4:
        raise ValueError("samples must be >= 10**4")
    cheb = _shifted_chebyshev(poly)
    reject_faces = v >= 1
    sums: list[float] = []
    sqs: list[float] = []
    rejected = 0
    done = 0
    chunk = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        rng = _chunk_rng(seed, chunk)
        u = rng.random((m, r))
        prod = u.prod(axis=1)
        for _ in range(100):
            bad = prod == 1.0
            if reject_faces:
                bad |= prod == 0.0
            nbad = int(bad.sum())
            if nbad == 0:
                break
            rejected += nbad
            u[bad] = rng.random((nbad, r))
            prod[bad] = u[bad].prod(axis=1)
        else:
            raise RuntimeError("singular-sample rejection did not settle")
        with np.errstate(divide="ignore"):
            weight = 1.0 / (1.0 - prod)
            if v:
                weight = weight * (-np.log(prod)) ** v
            if z > 0:
                weight = weight * prod**z
        # one fold at a time keeps the temporaries at one column's size
        fx = weight * math.prod(_clenshaw(cheb, column) for column in u.T)
        sums.append(float(np.sum(fx)))
        sqs.append(float(np.sum(fx * fx)))
        done += m
        chunk += 1
    s1 = math.fsum(sums)
    s2 = math.fsum(sqs)
    mean = s1 / samples
    var = max(0.0, (s2 - samples * mean * mean) / (samples - 1))
    return MCEstimate(
        mean=mean,
        stderr=math.sqrt(var / samples),
        samples=samples,
        seed=seed,
        rejected=rejected,
    )


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrosscheckReport:
    """Agreement report for the three computation paths on one case.

    direct_K is the number of series terms the direct path summed exactly
    before its Euler-Maclaurin tail.
    """

    r: int
    v: int
    precision: int
    exact: HighPrecisionValue
    direct: HighPrecisionValue
    direct_K: int
    mc: MCEstimate
    exact_vs_direct_ok: bool
    exact_vs_mc_ok: bool

    @property
    def passed(self) -> bool:
        return self.exact_vs_direct_ok and self.exact_vs_mc_ok

    @property
    def verified_digits(self) -> int:
        """Decimal digits the exact and direct enclosures certify together."""
        with mpmath.workdps(20):
            total = self.exact.error_bound + self.direct.error_bound
            return int(mpmath.floor(-mpmath.log10(total)))

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "v": self.v,
            "precision": self.precision,
            "exact": self.exact.to_json_dict(),
            "direct": self.direct.to_json_dict(),
            "direct_K": self.direct_K,
            "verified_digits": self.verified_digits,
            "mc": self.mc.to_json_dict(),
            "exact_vs_direct_ok": self.exact_vs_direct_ok,
            "exact_vs_mc_ok": self.exact_vs_mc_ok,
            "passed": self.passed,
        }


def crosscheck(
    poly: Poly,
    r: int,
    v: int,
    precision: int = 30,
    samples: int = 100_000,
    seed: int = 0,
) -> CrosscheckReport:
    """Compare the three paths on the r-fold, v-th log-weight integral of poly.

    poly is a Poly or a coefficient list, lowest degree first; for the
    degree-n family member pass legendre_coeffs(n).  Pass criteria: the
    direct sum certified to 10**-precision, |exact - direct| within the
    sum of the two certified bounds, and |exact - mc| within 4 standard
    errors.
    """
    poly = check_series_args(poly, r, v)
    exact = eval_combination(decompose(poly, r, v), precision)
    target = Fraction(1, 10**precision)
    direct, direct_K = _direct_sum(build_summand(poly, r, v), target)
    mc = mc_integral(poly, r, v, 0.0, samples, seed)
    with mpmath.workdps(precision + 10):
        d1 = abs(exact.value - direct.value)
        ok1 = d1 <= exact.error_bound + direct.error_bound
        ok1 = ok1 and direct.error_bound <= _fraction_to_mpf(target)
        d2 = abs(exact.value - mpf(mc.mean))
        ok2 = d2 <= 4 * mpf(mc.stderr)
    return CrosscheckReport(
        r=r,
        v=v,
        precision=precision,
        exact=exact,
        direct=direct,
        direct_K=direct_K,
        mc=mc,
        exact_vs_direct_ok=bool(ok1),
        exact_vs_mc_ok=bool(ok2),
    )


def shifted_series_value(poly: Poly, r: int, z: int, precision: int = 30) -> HighPrecisionValue:
    """Exact value of sum_{k>=0} M(z+k)**r for integer z >= 0.

    Shifting the series start keeps everything exact: the value is the
    full decomposition value minus the first z exact terms.
    """
    if z < 0 or int(z) != z:
        raise ValueError("z must be a nonnegative integer here")
    combo = decompose(poly, r, 0)
    full = eval_combination(combo, precision)
    if z == 0:
        return full
    spec = build_summand(poly, r, 0)
    head = series_partial_sum(spec, int(z))
    with mpmath.workdps(full.dps + 10):
        val = full.value - _fraction_to_mpf(head)
        err = full.error_bound + abs(val) * mpf(10) ** (1 - full.dps)
    return HighPrecisionValue(value=val, error_bound=err, dps=full.dps)
