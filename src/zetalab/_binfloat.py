"""Binary floating point on raw (sign, man, exp, bc) tuples, without mpmath.

A raw value is (-1)**sign * man * 2**exp, with man odd (or the zero
(0, 0, 0, 0)) and bc = man.bit_length(): the tuples of ``mpmath.libmp``.
Every function here but exp_int returns the tuple that its libmp
counterpart (add for mpf_add, pow_int for mpf_pow_int, and so on) returns
for the same arguments (mpmath 1.3), so the numeric layer computes and
prints what it did through mpmath while the CLI never imports it.  exp_int
is correctly rounded, which libmp's mpf_exp is not everywhere; wherever it
is, the two return the same tuple.  Rounding modes are libmp's: "n" to
nearest, ties to even; "d" toward zero; "u" away from zero.

* mul, div, from_int, from_rational, abs_ and mul_int: libmp rounds each
  exact result once, so one function does all of them (_round); abs_
  skips it for an operand of at most prec bits, which it would not change.  add
  rounds the exact sum too, except for far-apart operands, where libmp
  rounds the larger one nudged by one unit past the precision.
* pow_int: exact, or libmp's binary powering with directed rounding at a
  raised working precision once bc * n >= 1000; a negative power is the
  reciprocal of the positive power rounded at prec + 5 bits.
* exp_int: e**k for an integer k, correctly rounded to nearest by Ziv's
  test on two outward-rounded powers of the fixed-point e.  The fixed-point
  constants ln 2, ln 10 (for nstr) and e are floor(c * 2**prec), which is
  what libmp's memoized constants give.
* nstr: mpmath.nstr(x, dps) with its default options: the digits truncated
  toward zero, rounded half up on the digit after dps, in fixed notation
  when the leading digit's exponent lies strictly between
  min(-(dps // 3), -5) and dps.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "ZERO", "ONE", "TEN", "dps_to_prec", "from_int", "from_rational", "to_rational", "abs_",
    "add", "mul", "mul_int", "div", "gt", "pow_int", "exp_int", "nstr",
]

ZERO = (0, 0, 0, 0)
ONE = (0, 1, 0, 1)
TEN = (0, 5, 1, 3)

_LOG2_10 = math.log(10, 2)


def dps_to_prec(dps: int) -> int:
    """Bits that represent dps decimal digits accurately."""
    return max(1, int(round((int(dps) + 1) * 3.3219280948873626)))


def _round(sign: int, man: int, exp: int, prec: int, rnd: str = "n"):
    """(-1)**sign * man * 2**exp, for man >= 0, rounded to prec bits (0: exact)."""
    if not man:
        return ZERO
    shift = man.bit_length() - prec
    if prec and shift > 0:
        if rnd == "n":
            half = man >> (shift - 1)
            below = man & ((1 << (shift - 1)) - 1)
            man = half >> 1
            if half & 1 and (man & 1 or below):
                man += 1
        elif rnd == "d":
            man >>= shift
        else:
            man = -(-man >> shift)
        exp += shift
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def from_int(n: int, prec: int = 0, rnd: str = "n"):
    return _round(int(n < 0), abs(n), 0, prec, rnd)


def to_rational(s) -> tuple[int, int]:
    """(p, q) with s == p / q exactly."""
    sign, man, exp, _ = s
    if sign:
        man = -man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def abs_(s, prec: int, rnd: str = "n"):
    if s[3] <= prec or not prec:
        return (0, s[1], s[2], s[3]) if s[0] else s
    return _round(0, s[1], s[2], prec, rnd)


def add(s, t, prec: int, rnd: str = "n"):
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not sman:
        return _round(tsign, tman, texp, prec, rnd)
    if not tman:
        return _round(ssign, sman, sexp, prec, rnd)
    if sexp < texp:  # make s the operand with the larger exponent
        ssign, sman, sexp, sbc, tsign, tman, texp, tbc = tsign, tman, texp, tbc, ssign, sman, sexp, sbc
    offset = sexp - texp
    if offset > 100 and prec and sbc + sexp - tbc - texp > prec + 4:
        # t lies below every bit that matters: round s nudged toward t
        nudged = (sman << (prec + 4)) + (1 if ssign == tsign else -1)
        return _round(ssign, nudged, sexp - prec - 4, prec, rnd)
    total = (-sman if ssign else sman) << offset
    total += -tman if tsign else tman
    return _round(int(total < 0), abs(total), texp, prec, rnd)


def mul(s, t, prec: int, rnd: str = "n"):
    return _round(s[0] ^ t[0], s[1] * t[1], s[2] + t[2], prec, rnd)


def mul_int(s, n: int, prec: int, rnd: str = "n"):
    return _round(s[0] ^ int(n < 0), s[1] * abs(n), s[2], prec, rnd)


def div(s, t, prec: int, rnd: str = "n"):
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not tman:
        raise ZeroDivisionError
    sign = ssign ^ tsign
    if tman == 1:
        return _round(sign, sman, sexp - texp, prec, rnd)
    # a quotient of at least prec + 5 bits, and a sticky last bit if inexact
    extra = max(prec - sbc + tbc + 5, 5)
    quot, rem = divmod(sman << extra, tman)
    if rem:
        quot = (quot << 1) | 1
        extra += 1
    return _round(sign, quot, sexp - texp - extra, prec, rnd)


def from_rational(p: int, q: int, prec: int, rnd: str = "n"):
    return div(from_int(p), from_int(q), prec, rnd)


def gt(s, t) -> bool:
    """s > t."""
    if s == t:
        return False
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not sman or not tman or ssign != tsign:
        return (-1 if ssign else 1) * bool(sman) > (-1 if tsign else 1) * bool(tman)
    top_s, top_t = sbc + sexp, tbc + texp
    if top_s == top_t:
        low = min(sexp, texp)
        larger = (sman << (sexp - low)) > (tman << (texp - low))
    else:
        larger = top_s > top_t
    return larger != bool(ssign)


_RECIPROCAL_RND = {"n": "n", "d": "u", "u": "d"}


def pow_int(s, n: int, prec: int, rnd: str = "n"):
    """s**n for an integer n."""
    sign, man, exp, bc = s
    if n == 1:
        return _round(sign, man, exp, prec, rnd)
    if n == 2:
        return _round(0, man * man, exp + exp, prec, rnd)
    if n == -1:
        return div(ONE, s, prec, rnd)
    if n < 0:
        inverse = pow_int(s, -n, prec + 5, _RECIPROCAL_RND[rnd])
        return div(ONE, inverse, prec, rnd)
    result_sign = sign & n
    if man == 1 or bc * n < 1000:
        return _round(result_sign, man**n, exp * n, prec, rnd)
    # libmp's binary powering: every product is cut to workprec bits,
    # rounded toward zero (or away from zero under "u")
    workprec = prec + 4 * n.bit_length() + 4

    def cut(m, e):
        excess = m.bit_length() - workprec
        if excess <= 0:
            return m, e
        return (-(-m >> excess) if rnd == "u" else m >> excess), e + excess

    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = cut(pm * man, pe + exp)
            n -= 1
            if not n:
                break
        man, exp = cut(man * man, exp + exp)
        n //= 2
    return _round(result_sign, pm, pe, prec, rnd)


# -- constants and the exponential -------------------------------------------


def _floor_scaled(approx, prec: int) -> int:
    """floor(c * 2**prec), given approx(wp) = (a, err) with a <= c * 2**wp < a + err.

    The guard bits grow until they settle the floor."""
    guard = 32
    while True:
        a, err = approx(prec + guard)
        low = a >> guard
        if (a + err) >> guard == low:
            return low
        guard *= 2


def _atanh_recip(q: int, wp: int) -> tuple[int, int]:
    """(a, err) with a <= atanh(1/q) * 2**wp < a + err, for q >= 3.

    Each term floor(2**wp / ((2k+1) q**(2k+1))) is exact, as floor divisions
    nest; the terms lose under one unit each, and the tail past the last
    nonzero one is below 9/8."""
    total, k, power, step = 0, 0, (1 << wp) // q, q * q
    while power:
        total += power // (2 * k + 1)
        power //= step
        k += 1
    return total, k + 2


def _ln2_approx(wp: int) -> tuple[int, int]:
    a, err = _atanh_recip(3, wp)  # ln 2 = 2 atanh(1/3)
    return 2 * a, 2 * err


def _ln10_approx(wp: int) -> tuple[int, int]:
    a3, e3 = _atanh_recip(3, wp)  # ln 10 = 3 ln 2 + ln(5/4) = 6 atanh(1/3) + 2 atanh(1/9)
    a9, e9 = _atanh_recip(9, wp)
    return 6 * a3 + 2 * a9, 6 * e3 + 2 * e9


def _e_approx(wp: int) -> tuple[int, int]:
    """sum_k floor(2**wp / k!): each term exact, under one unit lost per
    term, and a tail below 2 past the last nonzero one."""
    total, k, term = 0, 0, 1 << wp
    while term:
        total += term
        k += 1
        term //= k
    return total, k + 2


@functools.lru_cache(maxsize=64)
def _ln2_fixed(prec: int) -> int:
    return _floor_scaled(_ln2_approx, prec)


@functools.lru_cache(maxsize=64)
def _ln10_fixed(prec: int) -> int:
    return _floor_scaled(_ln10_approx, prec)


@functools.lru_cache(maxsize=64)
def _e_fixed(prec: int) -> int:
    return _floor_scaled(_e_approx, prec)


def _constant(fixed, prec: int):
    """The constant rounded toward zero to prec bits, as libmp's mpf_ln2 & co. do."""
    wp = prec + 20
    return _round(0, fixed(wp), -wp, prec, "d")


def exp_int(k: int, prec: int):
    """e**k for an integer k, correctly rounded to nearest.

    Ziv's rounding test: floor(e * 2**wp) and one unit more enclose e, and
    their k-th powers, rounded outward, enclose e**k.  Once both ends round
    to the same prec bits, so does e**k; until then wp doubles.  e**k is
    irrational for k != 0, so it never ties and the loop ends."""
    wp = prec + 2 * abs(k).bit_length() + 20
    while True:
        e = _e_fixed(wp)
        below, above = _round(0, e, -wp, 0), _round(0, e + 1, -wp, 0)
        if k < 0:  # e**k falls as e grows
            below, above = above, below
        low = pow_int(below, k, wp, "d")
        high = pow_int(above, k, wp, "u")
        nearest = _round(0, low[1], low[2], prec)
        if nearest == _round(0, high[1], high[2], prec):
            return nearest
        wp *= 2


# -- decimal output ----------------------------------------------------------


def _digits_exp(s, dps: int) -> tuple[str, int]:
    """(digits, exponent) of |s| != 0, truncated as libmp's to_digits_exp does."""
    _, man, exp, bc = s
    s = (0, man, exp, bc)
    bitprec = int(dps * _LOG2_10) + 10
    exponent = 0
    if abs(exp + bc) > 3500:
        # divide by a power of ten near |s| first, found at low precision
        expprec = abs(exp).bit_length() + 5
        b = mul(from_int(exp), _constant(_ln2_fixed, expprec), 0)
        b = div(b, _constant(_ln10_fixed, expprec), expprec, "d")
        bsign, bman, bexp, _ = b
        exponent = bman << bexp if bexp >= 0 else bman >> -bexp
        if bsign:
            exponent = -exponent
        s = div(s, pow_int(TEN, exponent, bitprec, "d"), bitprec, "d")
        _, man, exp, bc = s
    fixprec = max(bitprec - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    offset = exp + fixprec
    fixed = man << offset if offset >= 0 else man >> -offset
    digits = _numeral(fixed * 10**fixdps >> fixprec, dps)
    return digits, exponent + len(digits) - fixdps - 1


def _numeral(n: int, size: int) -> str:
    """str(n) for n > 0, split into halves of about size digits as libmp's
    numeral splits it, so no single conversion passes Python's int->str limit."""
    if size < 250:
        return str(n)
    half = size // 2 + (size & 1)
    high, low = divmod(n, 10**half)
    return _numeral(high, half) + _numeral(low, half).rjust(half, "0")


def nstr(s, dps: int) -> str:
    """mpmath.nstr(mpf(s), dps) for dps >= 1."""
    if not s[1]:
        return "0.0"
    digits, exponent = _digits_exp(s, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps]
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            digits += "0" * (split - dps)
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    sign = "-" if s[0] else ""
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"
