"""High-precision numeric layer: certified zeta values, direct summation,
and a reproducible Monte Carlo oracle for the r-fold integrals, plus the
criterion scan (``rationality_criterion``), which evaluates the exact
decompositions of the Legendre family at certified precision.  This layer
builds on the exact one (``polys``, ``decomp``), which never imports it.

Three independent evaluation paths cross-check each other:

1. exact decomposition -> ``eval_combination`` (zeta-basis, certified);
2. ``direct_sum_value``: read off the moment M = sum_l a_l/(s+l+1) alone,
   in integer arithmetic.  The first K terms G(k) come from M's Taylor
   coefficients at s = k, summed over one common denominator; the
   Euler-Maclaurin tail comes from M's expansion at s = infinity (integer
   power sums of the pole positions), with certified bounds on the
   dropped expansion terms (Cauchy's estimate on a bound for |M|) and on
   the remainder.  The Euler-Maclaurin loop runs on integers too: its
   stopping tests are cross-multiplied comparisons, its corrections one
   numerator over one denominator, and the Bernoulli numbers come from the
   tangent numbers once per process; only the result becomes a Fraction.
   It never expands G, and it touches neither partial fractions, nor the
   Laurent expansions at the poles, nor zeta values;
3. ``mc_integral``: plain uniform Monte Carlo over the unit cube.  The
   integrable singularities (log powers at the faces, the simple pole at
   the corner of the cube) keep the variance finite at desk scale, at the
   cost of the usual 1/sqrt(N) convergence.  No importance sampling: the
   oracle stays simple enough to trust.  R is evaluated in float64 by
   Clenshaw's recurrence, from its coefficients in the Chebyshev basis
   shifted to [0, 1], each converted exactly (a closed binomial sum in
   integers), then rounded once: the monomial coefficients of P_n grow
   like C(n,k) C(n+k,k) and cancel catastrophically.

Zeta values use the alternating-series acceleration with Chebyshev-derived
integer weights d_k (Borwein's method), built by an exact integer
recurrence.  Written in the weights' increments a_i, the partial sum is
-sum_i a_i eta_i(j), with eta_i(j) = sum_{m<=i} (-1)**(m-1) m**-j the
alternating partial sums, which do not depend on n.  So each j keeps its
eta_i as integers over lcm(1..cap)**j, shared by every n up to the cap,
and each (j, n) costs one dot product, normalized once; the increments of
the last n serve every j asked for at that n.  The truncation error is
provably below 3 / ((3+sqrt(8))**n * |1 - 2**(1-j)|), so every returned
value carries a certified absolute error bound.

The scan carries two quantities from row to row instead of rebuilding
them: lcm(1..n), by one ``math.lcm`` per row, and e**((r+v) n), whose
outward enclosure each row multiplies by that of e**(r+v)
(``_binfloat.exp_int_steps``); a row whose enclosure Ziv's test does not
settle takes ``exp_int``'s value, so every exp_scaled is the correctly
rounded e**k times |c|.  ``eval_combination`` sums the magnitude
1 + sum |q_j| + |q_0| as one integer over the combination's common
denominator.  After these, a row's cost is its decomposition and its zeta
dot products.

Randomness: the SplitMix64 counter-based generator, computed on numpy
uint64 arrays (``numpy.random`` is never imported).  Sample i of a run with
seed s in r dimensions is outputs i * r + 1, ..., i * r + r of the stream
seeded with s mod 2**64, so no two samples share a draw, and a shorter run
draws the first samples of a longer one.  A block's counters start from one
read-only array built once per process, and each output becomes its double
through its bit pattern, with no integer-to-float conversion.  Every draw
lies in the open interval (0, 1), so at r <= 20 no sample is singular and
none is redrawn.
The counters fix every draw, and the blocks the samples are summed in
depend only on r, so identical (samples, seed) always reproduce the same
estimate bit for bit.

Zeta values and their combinations run in binary floating point at the
requested precision plus 10 guard digits (plus what the coefficients' size
requires), and a budget term in the bound covers each rounding.  The
arithmetic and the decimal output are ``_binfloat``'s: integer code on
mpmath's raw (sign, man, exp, bc) tuples that returns, bit for bit, what
``mpmath.libmp`` and ``mpmath.nstr`` return (e**k is correctly rounded,
and libmp's tuple wherever libmp rounds it correctly), so this module, and
with it the CLI, never imports mpmath.  Only reading an mpf off a result
(``HighPrecisionValue.value`` and ``.error_bound``, the numbers of a
``CriterionRecord``) imports it, in ``_mpf``.  ``zeta_value``,
``eval_combination`` and ``rationality_criterion`` name the precision of
every operation, so they read and set no process-wide state and are safe
to call from threads; ``zeta_value`` is a pure function of (j, precision),
memoized on them.  The direct sum is rounded once,
outward (``_outward``); ``crosscheck`` compares exact enclosures.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable

import numpy as np

from . import _binfloat as bf
from .decomp import ZetaCombination, check_integer, check_series_args, decompose, lcm_upto
from .polys import Poly, legendre_coeffs

__all__ = [
    "HighPrecisionValue",
    "zeta_value",
    "eval_combination",
    "CriterionRecord",
    "rationality_criterion",
    "direct_sum_value",
    "MCEstimate",
    "mc_integral",
    "CrosscheckReport",
    "crosscheck",
]

_MC_BLOCK = 1 << 14


def _raw(x):
    """The raw (sign, man, exp, bc) tuple of an mpf; a raw tuple or None passes through."""
    return getattr(x, "_mpf_", x)


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(field.name for field in fields(cls))


def _set_fields(record, *values) -> None:
    """Set the fields of a frozen dataclass instance, in order."""
    for name, value in zip(_field_names(type(record)), values, strict=True):
        object.__setattr__(record, name, value)


def _mpf(raw):
    """A raw tuple as an mpmath mpf (None stays None): the package's one import of mpmath."""
    if raw is None:
        return None
    import mpmath

    return mpmath.mp.make_mpf(raw)


@dataclass(frozen=True, init=False)
class HighPrecisionValue:
    """A value with a certified absolute error bound (true value lies in
    [value - error_bound, value + error_bound]).

    The value and the bound are kept as raw (sign, man, exp, bc) tuples;
    reading .value or .error_bound gives an mpmath mpf, and imports mpmath
    then.  The constructor takes mpfs or raw tuples.
    """

    _value: tuple
    _error_bound: tuple  # nonnegative
    dps: int

    def __init__(self, value, error_bound, dps: int):
        _set_fields(self, _raw(value), _raw(error_bound), dps)

    @property
    def value(self):
        return _mpf(self._value)

    @property
    def error_bound(self):
        return _mpf(self._error_bound)

    def to_json_dict(self) -> dict:
        return {
            "value": bf.nstr(self._value, self.dps),
            "error_bound": bf.nstr(self._error_bound, 8),
        }


def _from_fraction(x: Fraction, prec: int):
    """x at prec bits, as a raw value, rounded as mpf(p) / mpf(q) rounds it:
    p and q, then the quotient."""
    p = bf.from_int(x.numerator, prec)
    q = bf.from_int(x.denominator, prec)
    return bf.div(p, q, prec)


def _mpf_to_fraction(x) -> Fraction:
    """The exact value of a finite mpf or raw tuple."""
    return Fraction(*bf.to_rational(_raw(x)))


def _outward(mid: Fraction, rad: Fraction, dps: int) -> HighPrecisionValue:
    """mid +- rad at dps digits: the midpoint rounded to nearest once, the
    radius widened by that exact rounding error and then rounded up."""
    prec = bf.dps_to_prec(dps)
    value = bf.from_rational(mid.numerator, mid.denominator, prec, "n")
    rad += abs(mid - _mpf_to_fraction(value))
    bound = bf.from_rational(rad.numerator, rad.denominator, prec, "u")
    return HighPrecisionValue(value=value, error_bound=bound, dps=dps)


# ---------------------------------------------------------------------------
# certified zeta values
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _chebyshev_increments(n: int) -> tuple[int, ...]:
    """Increments a_0..a_n of the integer weights d_i = a_0 + ... + a_i of the
    accelerated alternating series with n weights.

    a_0 = 1 and a_{k+1} = a_k * 4 (n+k)(n-k) / ((2k+1)(2k+2)); every division
    is exact.  Each step multiplies a_k by one small integer, 4 (n+k)(n-k),
    and checks the remainder of its one divmod.  eval_combination asks for
    zeta(2..r+v) at one precision, so at one n: only the last n is kept.
    """
    a = 1
    out = [1]
    for i in range(n):
        a, rem = divmod(a * (4 * (n + i) * (n - i)), (2 * i + 1) * (2 * i + 2))
        if rem:
            raise RuntimeError(
                f"internal invariant violation: weight d_{i + 1} is not an integer"
            )
        out.append(a)
    return tuple(out)


@functools.lru_cache(maxsize=32)
def _eta_numerators(j: int, cap: int) -> tuple[tuple[int, ...], int]:
    """((E_0..E_cap), lcm(1..cap)**j) with E_i / lcm(1..cap)**j equal to
    eta_i(j) = sum_{m<=i} (-1)**(m-1) m**-j.  No eta_i depends on n, so every
    n up to cap shares them."""
    lam = lcm_upto(cap)
    terms = [(lam // m) ** j for m in range(1, cap + 1)]
    terms[1::2] = [-t for t in terms[1::2]]
    return tuple(itertools.accumulate(terms, initial=0)), lam**j


def _zeta_rational(j: int, digits: int) -> tuple[Fraction, Fraction]:
    """(rational approximation of zeta(j), certified truncation bound).

    With the increments a_i of d_i, the alternating sum
    sum_{k<n} (-1)**k (d_k - d_n) / (k+1)**j equals -sum_{i<=n} a_i eta_i(j):
    one integer numerator over lcm(1..cap)**j, normalized once at the end.
    cap is n rounded up to a multiple of 16, so nearby n share the eta_i.
    Truncation after n weights is below 3/((3+sqrt 8)**n (1-2**(1-j)));
    3 + sqrt(8) > 5828/1000 = 1457/250 gives a rational upper bound on the
    error, built as one Fraction.
    """
    n = int((digits * math.log(10) + math.log(6)) / math.log(3 + math.sqrt(8))) + 3
    increments = _chebyshev_increments(n)
    eta, denominator = _eta_numerators(j, -(-n // 16) * 16)
    total = sum(map(operator.mul, increments, eta))  # a_0 meets eta_0 = 0
    half = 2 ** (j - 1)
    # zeta(j) ~ (total / lcm**j) * half / ((half - 1) d_n), normalized once
    value = Fraction(total * half, denominator * (half - 1) * sum(increments))
    bound = Fraction(3 * 250**n * half, 1457**n * (half - 1))
    return value, bound


@functools.lru_cache(maxsize=64)
def _ten_power(k: int, prec: int):
    """10**k at prec bits, as pow_int rounds it: a row asks zeta_value and
    eval_combination for the same few powers at one precision."""
    return bf.pow_int(bf.TEN, k, prec)


def _check_precision(precision: int) -> int:
    """The one precision check, returning precision as an int: callers run
    it before they spend any work."""
    precision = check_integer(precision, "precision")
    if precision < 10:
        raise ValueError("precision must be >= 10")
    return precision


# typed: zeta_value(3.0, p) must reach the checks, not the entry of zeta_value(3, p)
@functools.lru_cache(maxsize=None, typed=True)
def zeta_value(j: int, precision: int) -> HighPrecisionValue:
    """zeta(j) for integer j >= 2 with certified error <= 10**-precision.

    The value is carried at precision + 10 guard digits; the certified
    bound (truncation plus conversion rounding) lands well under the
    requested 10**-precision.  Every operation names its precision, so the
    result depends on (j, precision) alone and is memoized on them.
    """
    j = check_integer(j, "zeta index")
    if j < 2:
        raise ValueError("zeta_value requires j >= 2")
    precision = _check_precision(precision)
    working = precision + 10
    prec = bf.dps_to_prec(working)
    approx, trunc = _zeta_rational(j, working)
    rounding = _ten_power(2 - working, prec)
    err = bf.add(_from_fraction(trunc, prec), rounding, prec)
    if bf.gt(err, _ten_power(-precision, prec)):
        raise RuntimeError(
            f"zeta({j}) error bound {bf.nstr(err, 5)} exceeds the "
            f"requested 1e-{precision}"
        )
    value = _from_fraction(approx, prec)
    return HighPrecisionValue(value=value, error_bound=err, dps=precision)


def _magnitude_digits(x: Fraction) -> int:
    if x == 0:
        return 0
    bits = abs(x.numerator).bit_length() - x.denominator.bit_length()
    return max(0, int(bits * 0.30103) + 1)


def _combination_magnitude(combo: ZetaCombination) -> Fraction:
    """1 + sum |q_j| + |q_0|, as one integer over the common denominator,
    normalized once."""
    d = combo.common_denominator()
    constant = combo.constant
    total = d + abs(constant.numerator) * (d // constant.denominator)
    total += sum(abs(q.numerator) * (d // q.denominator) for _, q in combo.zeta)
    return Fraction(total, d)


def eval_combination(combo: ZetaCombination, precision: int = 30) -> HighPrecisionValue:
    """Numeric value of sum q_j zeta(j) + q_0 with a propagated error bound.

    The zeta factors are requested with enough extra digits that the
    magnitude of the rational coefficients cannot erode the target
    precision (the scans hit combinations whose coefficients are ~e**(3n)
    while the value is nearly zero).  Every operation names its precision,
    so the result depends on its arguments alone.
    """
    precision = _check_precision(precision)
    boost = _magnitude_digits(_combination_magnitude(combo)) + 2
    working = precision + 10 + boost
    prec = bf.dps_to_prec(working)

    def add(x, y):
        return bf.add(x, y, prec)

    def mul(x, y):
        return bf.mul(x, y, prec)

    eps = _ten_power(2 - working, prec)
    total = _from_fraction(combo.constant, prec)
    envelope = bf.abs_(total, prec)
    err = bf.ZERO
    for j, q in combo.zeta:
        z = zeta_value(j, precision + boost)
        value, bound = z._value, z._error_bound
        qv = _from_fraction(q, prec)
        size = bf.abs_(qv, prec)
        total = add(total, mul(qv, value))
        envelope = add(envelope, mul(size, add(bf.abs_(value, prec), bound)))
        err = add(err, mul(size, bound))
    budget = bf.mul_int(eps, 4 * len(combo.zeta) + 6, prec)
    err = add(err, mul(budget, add(envelope, bf.ONE)))
    return HighPrecisionValue(value=total, error_bound=err, dps=precision)


@dataclass(frozen=True, init=False)
class CriterionRecord:
    """Smallness data for one n: the quantities the criterion scans watch.

    abs_c is |c_v(n)| to the requested precision; lcm_scaled multiplies by
    lcm(1..n)**(r+v) (the exact integer is kept in lcm_pow); exp_scaled
    multiplies by e**((r+v)n).  ratio_to_prev is |c(n)/c(n-1)|, absent for
    the first record.  As in HighPrecisionValue, the four numbers are kept
    as raw tuples and read as mpmath mpfs; the constructor takes either.
    """

    n: int
    _abs_c: tuple
    lcm_pow: int
    _lcm_scaled: tuple
    _exp_scaled: tuple
    _ratio_to_prev: tuple | None

    def __init__(self, n: int, abs_c, lcm_pow: int, lcm_scaled, exp_scaled, ratio_to_prev):
        raws = _raw(abs_c), _raw(lcm_scaled), _raw(exp_scaled), _raw(ratio_to_prev)
        _set_fields(self, n, raws[0], lcm_pow, *raws[1:])

    @property
    def abs_c(self):
        return _mpf(self._abs_c)

    @property
    def lcm_scaled(self):
        return _mpf(self._lcm_scaled)

    @property
    def exp_scaled(self):
        return _mpf(self._exp_scaled)

    @property
    def ratio_to_prev(self):
        return _mpf(self._ratio_to_prev)

    def to_json_dict(self, dps: int) -> dict:
        """The scan's row: the numbers at dps digits, lcm_pow in full, a missing ratio None."""

        def digits(raw):
            return None if raw is None else bf.nstr(raw, dps)

        return {
            "n": self.n,
            "abs_c": digits(self._abs_c),
            "lcm_pow": str(self.lcm_pow),
            "lcm_scaled": digits(self._lcm_scaled),
            "exp_scaled": digits(self._exp_scaled),
            "ratio_to_prev": digits(self._ratio_to_prev),
        }


def rationality_criterion(
    r: int,
    v: int,
    n_max: int,
    precision: int = 30,
    progress: Callable[[int], None] | None = None,
    decomposer: Callable[[Poly, int, int], ZetaCombination] | None = None,
) -> list[CriterionRecord]:
    """Criterion records for the shifted-Legendre family at n = 0..n_max.

    |c_v(n)| comes from the exact decomposition evaluated with certified
    high-precision zeta values (never raw series summation).  The working
    precision is raised internally to absorb the size of the cleared
    coefficients, so cancellation between huge q_j's does not eat the
    requested digits.  Output is deterministic and ordered by n.

    `decomposer` lets callers route through a cache; it must be
    extensionally equal to `decompose`.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    precision = _check_precision(precision)
    if decomposer is None:
        decomposer = decompose
    records: list[CriterionRecord] = []
    prev_abs = None
    pole_power = r + v
    prec = bf.dps_to_prec(precision + 10)
    lcm = 1  # lcm(1..n), carried from row to row as e**((r+v) n) is
    for n, exp in enumerate(bf.exp_int_steps(pole_power, n_max, prec)):
        combo = decomposer(legendre_coeffs(n), r, v)
        abs_c = bf.abs_(eval_combination(combo, precision)._value, prec)
        if n:
            lcm = math.lcm(lcm, n)
        lcm_pow = lcm**pole_power
        lcm_scaled = bf.mul(bf.from_int(lcm_pow, prec), abs_c, prec)
        exp_scaled = bf.mul(exp, abs_c, prec)
        ratio = None
        if prev_abs is not None and bf.gt(prev_abs, bf.ZERO):
            ratio = bf.div(abs_c, prev_abs, prec)
        records.append(
            CriterionRecord(
                n=n,
                abs_c=abs_c,
                lcm_pow=lcm_pow,
                lcm_scaled=lcm_scaled,
                exp_scaled=exp_scaled,
                ratio_to_prev=ratio,
            )
        )
        prev_abs = abs_c
        if progress is not None:
            progress(n)
    return records


# ---------------------------------------------------------------------------
# certified direct summation (the oracle path, independent of partial
# fractions and of zeta values): everything is read off the moment
# M = sum_l a_l / (s+l+1), in integers over one common denominator per sum
# ---------------------------------------------------------------------------

# 2*pi > 62831853 / 10**7: a rational lower bound for the Euler-Maclaurin remainder
_TWO_PI_NUM, _TWO_PI_DEN = 62831853, 10**7


def _exact_quotient(a: int, b: int) -> int:
    """a // b where a is a multiple of b by construction; a remainder raises."""
    q, rem = divmod(a, b)
    if rem:
        raise RuntimeError(f"internal invariant violation: {b} does not divide the common denominator")
    return q


def _moment_expansion(poly: Poly, r: int, v: int, order: int) -> tuple[list[int], int]:
    """([E_0..E_order], A**r) with G(s) = sum_i (E_i / A**r) s**-i near s = infinity.

    A clears the denominators of R's coefficients and alpha_l = A a_l.  Near
    s = infinity, A M = sum_l alpha_l / (s+l+1) = sum_i mu_i s**-(i+1) with
    the integer power sums mu_i = sum_l alpha_l (-(l+1))**i, so
    (A M)**r = s**-r m(1/s)**r, where m(y) = sum_i mu_i y**i and m**r is a
    truncated product of integer power series.  Each derivative maps
    c s**-j to -j c s**-(j+1), hence E_{j+v} = (-1)**v (j)_v [y**(j-r)] m**r
    for j >= r, and E_i = 0 for i < r + v.
    """
    alpha, A = poly.clear_denominators()
    size = order - r - v + 1
    mu: list[int] = []
    steps = [-(l + 1) for l in range(len(alpha))]
    terms = alpha
    for _ in range(size):
        mu.append(sum(terms))
        terms = list(map(operator.mul, terms, steps))
    power = mu
    for _ in range(r - 1):
        power = [sum(map(operator.mul, power[: k + 1], mu[k::-1])) for k in range(size)]
    sign = -1 if v % 2 else 1
    out = [0] * min(r + v, order + 1)
    out += [sign * math.prod(range(i - v, i)) * c for i, c in enumerate(power, r + v)]
    return out, A**r


def _head_sum(poly: Poly, r: int, v: int, K: int) -> Fraction:
    """sum_{k<K} G(k), summed over one common denominator and normalized once.

    With alpha_l = A a_l as in _moment_expansion, put c = k+l+1, which is at
    most K + deg R here, and Lam = lcm(1..K + deg R), so every Q_c = Lam/c
    is an integer.  Then A M(k+t) = sum_l alpha_l / (c+t) =
    (1/Lam) sum_j tau_j (t/Lam)**j with tau_j = (-1)**j sum_l alpha_l
    Q_{k+l+1}**(j+1), and the Taylor coefficient G(k) = v! [t**v] M(k+t)**r
    is v! [u**v] tau(u)**r / (A**r Lam**(r+v)): an integer numerator over a
    denominator that all K terms share.
    """
    alpha, A = poly.clear_denominators()
    width = len(alpha)
    top = K + width - 1
    lam = lcm_upto(top)
    quotients = [_exact_quotient(lam, c) for c in range(1, top + 1)]
    rows = [quotients]  # rows[j][c-1] = Q_c**(j+1)
    for _ in range(v):
        rows.append(list(map(operator.mul, rows[-1], quotients)))
    total = 0
    for k in range(K):
        tau = [sum(map(operator.mul, alpha, row[k : k + width])) for row in rows]
        tau[1::2] = [-t for t in tau[1::2]]
        power = tau
        for _ in range(r - 2):
            power = [sum(map(operator.mul, power[: i + 1], tau[i::-1])) for i in range(v + 1)]
        total += sum(map(operator.mul, power, reversed(tau)))
    return Fraction(math.factorial(v) * total, A**r * lam ** (r + v))


def _cauchy_bound(poly: Poly, r: int, v: int, radius: int) -> Fraction:
    """A rational g_max >= |G(s)| on the circle |s| = radius, for radius > deg R + 1.

    Let mu = deg R + 1, so the poles of M lie at -1, ..., -mu, and put
    delta = v (radius - mu) / (v + r).  Fix s with |s| = radius.  Every w
    with |w - s| <= delta has |w| >= radius - delta > mu >= l + 1, so
    |w + l + 1| >= radius - delta - l - 1 > 0 and

        |M(w)| <= B = sum_l |a_l| / (radius - delta - l - 1).

    M**r is analytic on that closed disc, so Cauchy's estimate gives
    |G(s)| = |(M**r)^(v)(s)| <= v! B**r / delta**v.  For v = 0, delta = 0
    and the bound is |M(s)|**r <= B**r directly.
    """
    mu = len(poly.coeffs)
    delta = Fraction(v * (radius - mu), v + r)
    near = radius - delta
    bound = sum(abs(a) / (near - l - 1) for l, a in enumerate(poly.coeffs))
    return math.factorial(v) * bound**r / delta**v


@functools.cache
def _bernoulli_table(count: int) -> tuple[tuple[int, int], ...]:
    """B_2, B_4, ..., B_2count as (numerator, denominator > 0), in lowest terms.

    B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k - 1)), with the tangent numbers
    T_k from Brent & Harvey's integer recurrence (arXiv:1108.0286).
    """
    t = [math.factorial(i) for i in range(count)]  # t[i] ends as T_(i+1)
    for k in range(1, count):
        for i in range(k, count):
            t[i] = (i - k) * t[i - 1] + (i - k + 2) * t[i]
    return tuple(
        Fraction((-1) ** (k - 1) * 2 * k * tk, 4**k * (4**k - 1)).as_integer_ratio()
        for k, tk in enumerate(t, 1)
    )


def _bernoulli(n: int) -> tuple[int, int]:
    """B_n for even n >= 2, off a table of 16, 32, 64, ... entries, each built once per process.

    Sixteen entries cover a typical direct sum's corrections in one table;
    starting from one entry rebuilds the first ones up to five times.
    """
    k = n // 2
    return _bernoulli_table(max(16, 1 << (k - 1).bit_length()))[k - 1]


def _euler_maclaurin_sum(poly: Poly, r: int, v: int, tau: Fraction) -> tuple[Fraction, Fraction, int]:
    """(S, bound, K) with |sum_{k>=0} G(k) - S| <= bound <= tau / 2.

    G = P + T splits at s = infinity into P = sum_{d<=i<=L} e_i s**-i, with
    d = r + v and the e_i from _moment_expansion, and a remainder T.  S is
    the exact head sum_{k<K} G(k) (_head_sum) plus the Euler-Maclaurin sum
    of P from K on, term by term over the powers:

        sum_{k>=K} k**-i = K**(1-i)/(i-1) + K**-i/2
                           + sum_{j<=p} B_2j/(2j)! (i)_2j-1 K**(1-i-2j) + R,
        |R| <= 4/(2 pi)**2p * (i)_2p-1 K**(1-i-2p),

    with (i)_q the rising factorial; the remainder bound follows Johansson,
    arXiv:1309.2877.  The poles of G lie at -m with 1 <= m <= mu = deg R + 1,
    so G's expansion converges on |s| > mu; with rho = 2 mu and
    g_max >= |G| on |s| = rho (_cauchy_bound), Cauchy's estimate gives
    |e_i| <= g_max rho**i, hence

        sum_{k>=K} |T(k)| <= g_max (rho/K)**(L+1) (1 + K/L) / (1 - rho/K).

    L is the least order that brings this under tau/4.  K starts at 8 rho
    and doubles until some p brings the remainder under tau/4 before the
    remainder bounds start to grow again.  The Euler-Maclaurin sums run on
    the integers U_i = E_i K**(L-i), e_i K**-i = U_i / (A**r K**L), and so
    does the loop over p: the corrections are kept as one integer numerator
    over a denominator built from running powers and products, the
    remainder bound as a numerator and a denominator, and the tests against
    tau/4 and against the previous remainder are cross-multiplied.  A
    Fraction is built only for S and the bound, and each B_2j comes from
    _bernoulli, once per process.  Everything is exact, so the bound covers
    all error.
    """
    d = r + v
    radius = 2 * len(poly.coeffs)
    g_max = _cauchy_bound(poly, r, v, radius)
    budget = tau / 4
    K = 8 * radius
    e: list[int] = []
    while True:
        # the truncation bound is g_max rho**(L+1) K (L+K) / (K**(L+1) (K-rho) L);
        # compare it with the budget cross-multiplied, in integers
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
        trunc_num, trunc_den = upper * rho_pow * (L + K), lower * k_pow * L
        if len(e) <= L:
            e, den = _moment_expansion(poly, r, v, L)
        scale = den * K**L  # e_i K**-i = U_i / scale
        u = [c * K ** (L - i) for i, c in enumerate(e[d : L + 1], d)]
        magnitudes = [abs(c) for c in u]
        rising = list(range(d, L + 1))  # (i)_2j-1 at j = 1
        # at order j: corrections = c_num / (scale k_odd factorial b_prod),
        # with k_odd = K**(2j-1), factorial = (2j)! and b_prod the product of
        # the denominators of B_2 .. B_2j; the remainder bound is
        # absolute * pi_den / (scale k_odd pi_num), pi_den / pi_num >= 4 / (2 pi)**2j
        k_odd, factorial, b_prod = K, 2, 1
        pi_num, pi_den = _TWO_PI_NUM**2, 4 * _TWO_PI_DEN**2
        c_num = 0
        previous = None
        j = 1
        while True:
            b_num, b_den = _bernoulli(2 * j)
            signed = sum(map(operator.mul, u, rising))
            c_num = c_num * (K * K * (2 * j - 1) * (2 * j) * b_den) + b_num * signed * b_prod
            b_prod *= b_den
            rem_num = sum(map(operator.mul, magnitudes, rising)) * pi_den
            rem_den = scale * k_odd * pi_num
            if rem_num * budget.denominator <= rem_den * budget.numerator:
                lam = lcm_upto(L - 1)
                integral = sum(c * _exact_quotient(lam, i - 1) for i, c in enumerate(u, d))
                spread = k_odd * factorial * b_prod
                tail = Fraction(
                    (2 * K * integral + lam * sum(u)) * spread + 2 * lam * c_num,
                    2 * lam * scale * spread,
                )
                bound = Fraction(trunc_num * rem_den + rem_num * trunc_den, trunc_den * rem_den)
                return _head_sum(poly, r, v, K) + tail, bound, K
            if previous is not None and rem_num * previous[1] >= previous[0] * rem_den:
                break
            previous = rem_num, rem_den
            rising = [c * (i + 2 * j - 1) * (i + 2 * j) for i, c in enumerate(rising, d)]
            j += 1
            k_odd *= K * K
            factorial *= (2 * j - 1) * (2 * j)
            pi_num *= _TWO_PI_NUM**2
            pi_den *= _TWO_PI_DEN**2
        K *= 2


def _direct_sum(poly: Poly, r: int, v: int, tau: Fraction) -> tuple[HighPrecisionValue, int]:
    """direct_sum_value's result for (poly, r, v), and the number K of exact terms."""
    if tau <= 0:
        raise ValueError("target_error must be positive")
    total, bound, K = _euler_maclaurin_sum(poly, r, v, tau)
    sign = -1 if v % 2 else 1
    out_dps = max(15, _magnitude_digits(1 / bound) + _magnitude_digits(abs(total)) + 5)
    return _outward(sign * total, bound, out_dps), K


def direct_sum_value(poly: Poly, r: int, v: int, target_error) -> HighPrecisionValue:
    """(-1)**v times the series sum, certified within target_error.

    An exact head of K terms plus an Euler-Maclaurin tail, both read off the
    moment M (its Taylor expansions at s = k and its expansion at
    infinity), with rigorous bounds on both the dropped expansion terms and
    the remainder (see _euler_maclaurin_sum).  Every positive target is
    reachable.  poly is a Poly or a coefficient list, lowest degree first.
    target_error is anything Fraction() reads: an int, a str such as
    "1e-6", a float or a Fraction; a non-finite or non-positive one raises
    ValueError.  Fully independent of partial fractions and of zeta_value.
    """
    poly = check_series_args(poly, r, v)
    try:
        tau = Fraction(target_error)
    except OverflowError:  # Fraction(inf); Fraction(nan) raises ValueError itself
        raise ValueError("target_error must be finite") from None
    return _direct_sum(poly, r, v, tau)[0]


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    """Uniform-sampling estimate: mean +/- stderr from `samples` points of the cube.

    stderr is the sample standard deviation over sqrt(samples).  rejected
    is always 0: the draws avoid the cube's faces and corner, so no sample
    lands on a singular point and none is redrawn.  The field stays
    because the JSON report and the benchmark's tracer read it.
    Bit-for-bit reproducible from (samples, seed): the seed fixes the
    stream, and point i takes its r coordinates from outputs i * r + 1, ...,
    i * r + r.
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


_SM64_GAMMA = 0x9E3779B97F4A7C15
_ONE_BITS = 0x3FF0000000000000  # the bit pattern of 1.0


@functools.cache
def _block_counters() -> np.ndarray:
    """k * _SM64_GAMMA mod 2**64 for k < _MC_BLOCK, read-only: every block's
    counters before its offset, built once per process."""
    counters = np.arange(_MC_BLOCK, dtype=np.uint64)
    counters *= _SM64_GAMMA
    counters.flags.writeable = False
    return counters


def _draws(x0: int, first: int, shape) -> np.ndarray:
    """Outputs first, first + 1, ... of the SplitMix64 stream of seed x0, as doubles in (0, 1).

    Output k >= 1 is mix(x0 + k * _SM64_GAMMA mod 2**64) (Steele, Lea &
    Flood, OOPSLA 2014), filled into `shape` in row-major order.  Its double
    is ((output >> 11) | 1) * 2**-53, the midpoint of one of 2**52 equal
    cells of [0, 1): never 0 or 1, and its mean is exactly 1/2.  It is made
    from the bit pattern, with no integer-to-float conversion: the top 52
    bits of the output under the exponent of 1.0 give 1 + (output >> 12) *
    2**-52, and subtracting 1 - 2**-53 leaves (2 (output >> 12) + 1) *
    2**-53, which is that midpoint; the difference is a multiple of 2**-53
    below 1, so the subtraction is exact.  Up to _MC_BLOCK draws start from
    the cached counters (_block_counters), more from fresh ones; either way
    the result is a new array that the caller may overwrite.  uint64 arrays
    wrap modulo 2**64 without a warning (numpy scalars warn).
    """
    size = math.prod(shape)
    offset = np.uint64((x0 + first * _SM64_GAMMA) % 2**64)
    if size <= _MC_BLOCK:
        z = _block_counters()[:size] + offset
    else:
        z = np.arange(size, dtype=np.uint64)
        z *= _SM64_GAMMA
        z += offset
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    z >>= 12
    z |= _ONE_BITS
    u = z.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u.reshape(shape)


def _shifted_chebyshev(poly: Poly) -> np.ndarray:
    """c_0..c_n with poly(x) = sum_k c_k T_k(2x - 1), converted exactly, then rounded.

    With t = 2x - 1 = cos(theta), x = cos(theta/2)**2, so
    x**l = 2**(1-2l) (C(2l, l)/2 + sum_{k=1..l} C(2l, l-k) T_k(2x - 1))
    (Mason & Handscomb, Chebyshev Polynomials, 2003).  For poly =
    sum_l alpha_l x**l / A with integers alpha_l, c_k is N_k / (A 4**n), with
    N_k = sum_{l>=k} alpha_l 4**(n-l) C(2l, l-k), doubled for k >= 1: all in
    integers, and each c_k is rounded once, correctly, by int / int.  A c_k
    past the float64 range rounds to +-inf, as IEEE rounding would, so the
    estimate comes out non-finite instead of raising.
    """
    alpha, den = poly.clear_denominators()
    n = poly.degree
    weights = [a << 2 * (n - l) for l, a in enumerate(alpha)]
    nums = [
        sum(weights[l] * math.comb(2 * l, l - k) for l in range(k, n + 1)) * (2 if k else 1)
        for k in range(n + 1)
    ]
    den <<= 2 * n
    return np.array([_round_to_float(num, den) for num in nums], dtype=np.float64)


def _round_to_float(num: int, den: int) -> float:
    """num / den correctly rounded, or +-inf where it rounds past the largest finite float64."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _clenshaw(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(2x - 1) at every entry of x, by Clenshaw's recurrence.

    x is overwritten with the values and returned.  Each step is
    b1, b2 = 2y b1 + c_k - b2, b1, done in place in one new array, with 2y
    formed once if a step runs.  The first step from b1 = b2 = 0 gives c_n
    exactly, so b1 = c_n starts as a scalar (0 when n = 0) and b2 = None
    stands for 0 until a step sets it: x - 0.0 is x, so b2 is subtracted
    only once it is set, and a + b is b + a, so every value is bit for bit
    that of zero-filled arrays.  The rounding error is about
    eps * sum |c_k|, O(1) even for P_n, whose monomial coefficients are
    huge and cancel.
    """
    x *= 2.0
    x -= 1.0  # y = 2x - 1
    b1, b2 = (c[-1] if len(c) > 1 else 0.0), None
    if len(c) > 2:
        y2 = 2.0 * x
        for ck in c[-2:0:-1]:
            t = y2 * b1
            t += ck
            if b2 is not None:
                t -= b2
            b1, b2 = t, b1
    x *= b1
    x += c[0]
    if b2 is not None:
        x -= b2
    return x


def _row_products(u: np.ndarray) -> np.ndarray:
    """u.prod(axis=1) bit for bit: the columns multiplied left to right."""
    out = u[:, 0] * u[:, 1]
    for k in range(2, u.shape[1]):
        out *= u[:, k]
    return out


def mc_integral(
    poly: Poly,
    r: int,
    v: int,
    samples: int = 100_000,
    seed: int = 0,
) -> MCEstimate:
    """Uniform Monte Carlo estimate of the r-fold cube integral

        int (-log(x1...xr))**v / (1 - x1...xr) * prod R(xi) dx.

    Every draw lies in [2**-53, 1 - 2**-53] (see _draws), so the integrand
    is finite at every sample: a rounded product never exceeds its first
    factor, so 1 / (1 - x1...xr) <= 2**53, and for r <= 20 the product is
    at least 2**-1060 > 0, so its log is finite.  No sample is redrawn, and
    the estimate's rejected count is always 0.  (Past r = 20 a product can
    underflow to 0, and a log power then makes the estimate non-finite.)

    Sample i is outputs i * r + 1, ..., i * r + r of the stream, so
    samples * r must stay below 2**64, or the counters would wrap.  The
    samples are drawn and evaluated in blocks of _MC_BLOCK // r rows (at
    least one), so a block holds at most max(_MC_BLOCK, r) draws and its
    arrays stay small at any r.  Each block adds its sum and its sum of
    squares to the two lists that math.fsum adds up.
    """
    poly = check_series_args(poly, r, v)
    if samples < 10**4:
        raise ValueError("samples must be >= 10**4")
    if samples * r >= 2**64:
        raise ValueError("samples * r must be < 2**64, the SplitMix64 counter range")
    cheb = _shifted_chebyshev(poly)
    x0 = int(seed) % 2**64
    rows = max(1, _MC_BLOCK // r)
    sums: list[float] = []
    sqs: list[float] = []
    # an integrand past float64 overflows to inf and its square's sum to
    # NaN; the estimate then reports them, so numpy need not warn
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, samples, rows):
            u = _draws(x0, 1 + lo * r, (min(rows, samples - lo), r))
            p = _row_products(u)
            fx = 1.0 / (1.0 - p)
            if v:
                fx *= (-np.log(p)) ** v
            fx *= _row_products(_clenshaw(cheb, u))
            sums.append(float(np.sum(fx)))
            sqs.append(float(np.sum(fx * fx)))
    s1 = math.fsum(sums)
    s2 = math.fsum(sqs)
    mean = s1 / samples
    var = (s2 - samples * mean * mean) / (samples - 1)
    if var < 0.0:  # rounding; the NaN of an overflowed sum must stay NaN
        var = 0.0
    return MCEstimate(
        mean=mean,
        stderr=math.sqrt(var / samples),
        samples=samples,
        seed=seed,
        rejected=0,
    )


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrosscheckReport:
    """Agreement report for the three computation paths on one case.

    direct_K is the number of series terms the direct path summed exactly
    before its Euler-Maclaurin tail.  mc_variance_finite is False when the
    integrand's square has an infinite integral, so the MC stderr means
    nothing; mc_resolves_value is False when the MC stderr is not below
    |exact|, so the MC leg cannot tell the value from zero.  Neither
    enters `passed`.
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
    mc_variance_finite: bool = True

    @property
    def passed(self) -> bool:
        return self.exact_vs_direct_ok and self.exact_vs_mc_ok

    @property
    def mc_resolves_value(self) -> bool:
        stderr = self.mc.stderr
        return math.isfinite(stderr) and Fraction(stderr) < abs(_mpf_to_fraction(self.exact._value))

    @property
    def verified_digits(self) -> int:
        """Decimal digits the exact and direct enclosures certify together:
        the largest d with exact.error_bound + direct.error_bound <= 10**-d."""
        total = _mpf_to_fraction(self.exact._error_bound) + _mpf_to_fraction(self.direct._error_bound)
        # the float logarithms are off by far less than one digit: start below, step up exactly
        d = math.floor(math.log10(total.denominator) - math.log10(total.numerator)) - 1
        while total <= Fraction(1, 10) ** (d + 1):
            d += 1
        return d

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
            "mc_resolves_value": self.mc_resolves_value,
            "mc_variance_finite": self.mc_variance_finite,
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
    precision = _check_precision(precision)
    # the Monte Carlo leg first: it refuses a bad sample count before the
    # exact and direct legs spend any time
    mc = mc_integral(poly, r, v, samples, seed)
    exact = eval_combination(decompose(poly, r, v), precision)
    target = Fraction(1, 10**precision)
    direct, direct_K = _direct_sum(poly, r, v, target)
    exact_value = _mpf_to_fraction(exact._value)
    direct_bound = _mpf_to_fraction(direct._error_bound)
    gap = abs(exact_value - _mpf_to_fraction(direct._value))
    ok1 = direct_bound <= target and gap <= _mpf_to_fraction(exact._error_bound) + direct_bound
    # an estimate that overflowed float64 confirms nothing
    ok2 = math.isfinite(mc.mean) and math.isfinite(mc.stderr)
    ok2 = ok2 and abs(exact_value - Fraction(mc.mean)) <= 4 * Fraction(mc.stderr)
    # near the corner x = (1, ..., 1), with u_i = 1 - x_i, f**2 grows like
    # R(1)**(2r) * (u_1 + ... + u_r)**(2v - 2): integrable iff r + 2v > 2
    variance_finite = r + 2 * v > 2 or not sum(poly.coeffs)
    return CrosscheckReport(
        r=r,
        v=v,
        precision=precision,
        exact=exact,
        direct=direct,
        direct_K=direct_K,
        mc=mc,
        exact_vs_direct_ok=ok1,
        exact_vs_mc_ok=ok2,
        mc_variance_finite=variance_finite,
    )

