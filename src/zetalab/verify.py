"""High-precision numeric layer: certified zeta values, direct summation,
and a reproducible Monte Carlo oracle for the r-fold integrals.

Three independent evaluation paths cross-check each other:

1. exact decomposition -> ``eval_combination`` (zeta-basis, certified);
2. ``direct_sum_value``: truncated series plus a rigorous tail bound,
   never touching partial fractions;
3. ``mc_integral``: plain uniform Monte Carlo over the unit cube.  The
   integrable singularities (log powers at the faces, the simple pole at
   the corner of the cube) keep the variance finite at desk scale, at the
   cost of the usual 1/sqrt(N) convergence.  No importance sampling: the
   oracle stays simple enough to trust.

Zeta values use the alternating-series acceleration with Chebyshev-derived
integer weights d_k (Borwein's method): the partial sum is computed in
exact rational arithmetic, and the truncation error is provably below
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
from .fastsum import CertifiedSumError, certified_range_sum
from .moments import (
    SummandSpec,
    build_summand,
    series_partial_sum,
    tail_bound,
)
from .polys import Poly, legendre_coeffs

__all__ = [
    "HighPrecisionValue",
    "zeta_value",
    "eval_combination",
    "DirectSumError",
    "direct_sum_value",
    "MCEstimate",
    "mc_integral",
    "CrosscheckReport",
    "crosscheck",
    "shifted_series_value",
]

_MC_CHUNK = 1 << 16


class DirectSumError(RuntimeError):
    """Requested accuracy is unreachable at a feasible truncation point."""


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


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    val = Fraction(man) * Fraction(2) ** exp
    return -val if sign else val


def _fraction_to_mpf(x: Fraction):
    return mpf(x.numerator) / mpf(x.denominator)


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, mpf):
        return _mpf_to_fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# certified zeta values
# ---------------------------------------------------------------------------

_zeta_cache: dict[tuple[int, int], HighPrecisionValue] = {}


def _chebyshev_weights(n: int) -> list[int]:
    """Integer weights d_0..d_n of the accelerated alternating series."""
    t = Fraction(1, n)
    acc = t
    out = [1]  # d_0 = n * t_0 = 1
    for i in range(n):
        t = t * 4 * (n + i) * (n - i) / ((2 * i + 1) * (2 * i + 2))
        acc += t
        d = acc * n
        if d.denominator != 1:
            raise RuntimeError(
                f"internal invariant violation: weight d_{i + 1} = {d} is not an integer"
            )
        out.append(d.numerator)
    return out


def _zeta_rational(j: int, digits: int) -> tuple[Fraction, Fraction]:
    """(rational approximation of zeta(j), certified truncation bound).

    Truncation after n weights is below 3/((3+sqrt 8)**n (1-2**(1-j)));
    3 + sqrt(8) > 5828/1000 gives a rational upper bound on the error.
    """
    n = int((digits * math.log(10) + math.log(6)) / math.log(3 + math.sqrt(8))) + 3
    d = _chebyshev_weights(n)
    dn = d[n]
    s = Fraction(0)
    for k in range(n):
        term = Fraction(d[k] - dn, (k + 1) ** j)
        s += term if k % 2 == 0 else -term
    pref = Fraction(2 ** (j - 1), 2 ** (j - 1) - 1)
    value = -s * pref / dn
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

_MPF_TIER_CAP = 200_000
_FLOAT_TIER_CAP = 1 << 31
_EXACT_HEAD = 1024


def _min_k_for_tail(spec: SummandSpec, tau: Fraction, k_max: int) -> int | None:
    """Smallest K >= 2 with tail_bound(spec, K) <= tau, or None past k_max."""
    if tail_bound(spec, 2) <= tau:
        return 2
    hi = 2
    while tail_bound(spec, hi) > tau:
        hi *= 4
        if hi > k_max:
            if tail_bound(spec, k_max) > tau:
                return None
            hi = k_max
            break
    lo = hi // 4 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_bound(spec, mid) <= tau:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _horner_int(coeffs: list[int], k: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def _summand_int_parts(spec: SummandSpec) -> tuple[list[int], list[int], Fraction]:
    """G = scale * N_int / D_int with integer coefficient lists."""
    n_int, n_den = spec.summand.num.clear_denominators()
    d_int, d_den = spec.summand.den.clear_denominators()
    return n_int, d_int, Fraction(d_den, n_den)


def _mpf_tier_sum(spec: SummandSpec, K: int, tau: Fraction):
    """Sum of G(k), k < K, as mpf, with a certified rounding bound <= tau/2."""
    n_int, d_int, scale = _summand_int_parts(spec)
    head = max(abs(spec.summand(k)) for k in range(min(8, K)))
    guess = (
        22
        + _magnitude_digits(_to_fraction(1) / tau if tau < 1 else Fraction(1))
        + _magnitude_digits(Fraction(K) * (head + 1))
    )
    for attempt in range(3):
        dps = guess * (attempt + 1)
        with mpmath.workdps(dps):
            eps = mpf(10) ** (2 - dps)
            sc = _fraction_to_mpf(scale)
            total = mpf(0)
            total_abs = mpf(0)
            for k in range(K):
                t = mpf(_horner_int(n_int, k)) / mpf(_horner_int(d_int, k))
                total += t
                total_abs += abs(t)
            total *= sc
            bound_mpf = 2 * (K + 8) * eps * (total_abs * abs(sc) + 1)
            bound = _mpf_to_fraction(+bound_mpf) * 2
        if bound <= tau / 2:
            return total, bound
    raise RuntimeError("could not certify rounding error in mpf summation tier")


def _float_tier_sum(spec: SummandSpec, K: int, tau: Fraction):
    """Exact head plus certified float64 range sum for the long tail."""
    head_n = min(_EXACT_HEAD, K)
    head = series_partial_sum(spec, head_n)
    n_int, d_int, scale = _summand_int_parts(spec)
    num_scaled = [c * scale for c in map(Fraction, n_int)]
    try:
        tail_val, tail_err = certified_range_sum(
            num_scaled, [Fraction(c) for c in d_int], head_n, K
        )
    except CertifiedSumError as exc:
        raise DirectSumError(
            f"target needs K = {K} terms but float64 cannot certify them: {exc}"
        ) from exc
    if tail_err > tau / 2:
        raise DirectSumError(
            f"target unreachable: float64 rounding bound {float(tail_err):.3e} "
            f"exceeds half the target at K = {K}"
        )
    dps = 40 + _magnitude_digits(abs(head) + 1)
    with mpmath.workdps(dps):
        total = _fraction_to_mpf(head) + mpf(tail_val)
        bound = tail_err + _mpf_to_fraction(mpf(10) ** (2 - dps) * (abs(total) + 1)) * 4
    return total, bound


def direct_sum_value(
    poly: Poly,
    r: int,
    v: int,
    target_error,
    *,
    mpf_cap: int = _MPF_TIER_CAP,
    float_cap: int = _FLOAT_TIER_CAP,
) -> HighPrecisionValue:
    """(-1)**v times the series sum, certified within target_error.

    The truncation point K is the smallest one whose rigorous tail bound
    drops below half the target; the partial sum is then evaluated with a
    certified rounding budget for the other half.  Exact rational terms
    feed an mpf accumulation up to ``mpf_cap`` terms; beyond that a
    certified float64 tier (exact rational head, running-error-bounded
    vectorized tail) carries ranges up to ``float_cap``.  Past that, or
    when float64 cannot certify the budget, a DirectSumError reports the K
    the target would need.  Fully independent of partial fractions.
    """
    spec = build_summand(poly, r, v)
    tau = _to_fraction(target_error)
    if tau <= 0:
        raise ValueError("target_error must be positive")
    k_needed = _min_k_for_tail(spec, tau / 2, float_cap)
    if k_needed is None:
        d = spec.decay_degree
        from .moments import envelope_constant

        c = envelope_constant(spec, float_cap)
        mag = _magnitude_digits(2 * c / ((d - 1) * tau)) + 1
        k_digits = max(1, -(-mag // (d - 1)))
        raise DirectSumError(
            f"target {float(tau):.3e} unreachable at feasible K: decay degree {d} "
            f"needs roughly K = 10**{k_digits} terms (cap {float_cap})"
        )
    if k_needed <= mpf_cap:
        total, rbound = _mpf_tier_sum(spec, k_needed, tau)
    else:
        total, rbound = _float_tier_sum(spec, k_needed, tau)
    tail = tail_bound(spec, k_needed)
    err_fr = tail + rbound
    sign = -1 if spec.v % 2 else 1
    out_dps = max(15, _magnitude_digits(Fraction(1) / err_fr) + 5)
    with mpmath.workdps(out_dps):
        val = +(sign * total)
        err = _fraction_to_mpf(err_fr) * (1 + mpf(10) ** -8) + abs(val) * mpf(10) ** (
            1 - out_dps
        )
    return HighPrecisionValue(value=val, error_bound=err, dps=out_dps)


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
    if not isinstance(poly, Poly):
        poly = Poly(poly)
    if poly.is_zero:
        raise ValueError("zero polynomial")
    if r < 2:
        raise ValueError("need r >= 2")
    if v < 0:
        raise ValueError("v must be >= 0")
    z = float(z)
    if z < 0:
        raise ValueError("z must be >= 0 (negative z moves poles into range)")
    if samples < 10**4:
        raise ValueError("samples must be >= 10**4")
    coeffs = np.array([float(c) for c in poly.coeffs], dtype=np.float64)
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
        fx = weight * np.polynomial.polynomial.polyval(u.T, coeffs).prod(axis=0)
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
    """Agreement report for the three computation paths on one case."""

    n: int
    r: int
    v: int
    precision: int
    exact: HighPrecisionValue
    direct: HighPrecisionValue
    mc: MCEstimate
    exact_vs_direct_ok: bool
    exact_vs_mc_ok: bool

    @property
    def passed(self) -> bool:
        return self.exact_vs_direct_ok and self.exact_vs_mc_ok

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "v": self.v,
            "precision": self.precision,
            "exact": self.exact.to_json_dict(),
            "direct": self.direct.to_json_dict(),
            "mc": self.mc.to_json_dict(),
            "exact_vs_direct_ok": self.exact_vs_direct_ok,
            "exact_vs_mc_ok": self.exact_vs_mc_ok,
            "passed": self.passed,
        }


def _auto_direct_target(spec: SummandSpec, precision: int, mpf_cap: int) -> Fraction:
    tau0 = Fraction(1, 10**precision)
    if _min_k_for_tail(spec, tau0 / 2, mpf_cap) is not None:
        return tau0
    return 2 * tail_bound(spec, mpf_cap)


def crosscheck(
    n: int,
    r: int,
    v: int,
    precision: int = 30,
    samples: int = 100_000,
    seed: int = 0,
    *,
    mpf_cap: int = _MPF_TIER_CAP,
) -> CrosscheckReport:
    """Compare the three paths on the degree-n family member.

    Pass criteria: |exact - direct| within the sum of the two certified
    bounds, and |exact - mc| within 4 standard errors.
    """
    poly = legendre_coeffs(n)
    combo = decompose(poly, r, v)
    exact = eval_combination(combo, precision)
    spec = build_summand(poly, r, v)
    target = _auto_direct_target(spec, precision, mpf_cap)
    direct = direct_sum_value(poly, r, v, target, mpf_cap=mpf_cap)
    mc = mc_integral(poly, r, v, 0.0, samples, seed)
    with mpmath.workdps(precision + 10):
        d1 = abs(exact.value - direct.value)
        ok1 = d1 <= exact.error_bound + direct.error_bound
        d2 = abs(exact.value - mpf(mc.mean))
        ok2 = d2 <= 4 * mpf(mc.stderr)
    return CrosscheckReport(
        n=n,
        r=r,
        v=v,
        precision=precision,
        exact=exact,
        direct=direct,
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
