"""zetalab._binfloat against mpmath.libmp, the oracle it stands in for: every
primitive returns libmp's raw (sign, man, exp, bc) tuple, exp_int the
correctly rounded e**k that libmp encloses, and nstr mpmath.nstr's text."""

import mpmath
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp
from mpmath.libmp import libelefun

from zetalab import _binfloat as bf


def _raw_values(max_bits: int, max_exp: int):
    """Zero, or +-man * 2**exp with man of 1..max_bits bits, made canonical by libmp."""
    mantissas = st.integers(1, max_bits).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))
    nonzero = st.builds(
        lambda negative, man, exp: libmp.from_man_exp(-man if negative else man, exp),
        st.booleans(),
        mantissas,
        st.integers(-max_exp, max_exp),
    )
    return st.one_of(st.just(libmp.fzero), nonzero)


VALUES = _raw_values(2000, 20000)
PRECISIONS = st.integers(1, 500)
ROUNDINGS = st.sampled_from("ndu")
ONES_300 = libmp.from_man_exp(2**300 - 1, 200)  # wider than prec: libmp's add nudges it


@settings(max_examples=400)
@given(s=VALUES, t=VALUES, prec=PRECISIONS, rnd=ROUNDINGS)
@example(s=ONES_300, t=libmp.from_int(3), prec=53, rnd="n")
@example(s=libmp.from_int(3), t=libmp.mpf_neg(ONES_300), prec=53, rnd="u")
@example(s=libmp.from_man_exp(1, 500), t=libmp.from_int(-1), prec=53, rnd="d")
@example(s=libmp.from_int(3), t=libmp.from_int(3), prec=3, rnd="n")  # 9 ties: to even, 8
@example(s=libmp.from_int(11), t=libmp.from_int(1), prec=3, rnd="n")  # 11 ties: to even, 12
# the sum's exact rounding differs from libmp's, which rounds the wide s nudged toward t
@example(s=libmp.from_man_exp(2**39 + 2**29 - 1, 200), t=libmp.from_man_exp(2**120 + 1, 90), prec=10, rnd="n")
@example(s=libmp.from_int(5), t=libmp.from_int(-5), prec=10, rnd="n")
@example(s=libmp.from_int(-5), t=libmp.from_int(-7), prec=10, rnd="n")
# abs_ returns an operand of at most prec bits unrounded, and rounds a wider one
@example(s=libmp.from_int(-7), t=libmp.from_int(1), prec=3, rnd="u")
@example(s=libmp.from_int(-7), t=libmp.from_int(1), prec=2, rnd="u")
def test_arithmetic_returns_libmps_tuples(s, t, prec, rnd):
    assert bf.add(s, t, prec, rnd) == libmp.mpf_add(s, t, prec, rnd)
    assert bf.mul(s, t, prec, rnd) == libmp.mpf_mul(s, t, prec, rnd)
    if t[1]:
        assert bf.div(s, t, prec, rnd) == libmp.mpf_div(s, t, prec, rnd)
    assert bf.abs_(s, prec, rnd) == libmp.mpf_abs(s, prec, rnd)
    assert bf.gt(s, t) == libmp.mpf_gt(s, t)
    assert bf.gt(s, s) is libmp.mpf_gt(s, s) is False
    assert bf.to_rational(s) == libmp.to_rational(s)


@settings(max_examples=300)
@given(
    s=VALUES,
    n=st.integers(-(2**300), 2**300),
    q=st.integers(1, 2**200),
    prec=PRECISIONS,
    rnd=ROUNDINGS,
)
@example(s=libmp.fzero, n=0, q=1, prec=1, rnd="n")
@example(s=libmp.from_int(-3), n=2**64 - 1, q=3, prec=64, rnd="u")
@example(s=libmp.from_int(3), n=9, q=1, prec=3, rnd="n")  # ties to even
def test_integer_conversions_return_libmps_tuples(s, n, q, prec, rnd):
    assert bf.from_int(n) == libmp.from_int(n)
    assert bf.from_int(n, prec, rnd) == libmp.from_int(n, prec, rnd)
    assert bf.from_rational(n, q, prec, rnd) == libmp.from_rational(n, q, prec, rnd)
    assert bf.mul_int(s, n, prec, rnd) == libmp.mpf_mul_int(s, n, prec, rnd)


@settings(max_examples=300)
@given(s=_raw_values(300, 2000), n=st.integers(-3000, 3000), prec=PRECISIONS, rnd=ROUNDINGS)
@example(s=libmp.ften, n=-1000, prec=203, rnd="n")  # eval_combination's 10**(2 - working)
@example(s=libmp.ften, n=-1200, prec=60, rnd="d")  # nstr past 2**3500
@example(s=libmp.ften, n=1200, prec=60, rnd="d")
@example(s=ONES_300, n=7, prec=40, rnd="u")  # rounds up to a power of two inside the loop
@example(s=libmp.from_int(2**300 + 1), n=7, prec=40, rnd="u")  # a loop rounding down loses the excess
@example(s=ONES_300, n=7, prec=40, rnd="d")  # and one rounding up reaches the power of two
@example(s=libmp.from_int(-862683481517999783), n=-1, prec=20, rnd="n")  # 1/s, rounded once
@example(s=libmp.from_int(-3), n=0, prec=10, rnd="u")  # s**0 is one, from the general path
@example(s=libmp.fzero, n=0, prec=10, rnd="d")
def test_integer_powers_return_libmps_tuples(s, n, prec, rnd):
    if not s[1] and n < 0:
        return
    assert bf.pow_int(s, n, prec, rnd) == libmp.mpf_pow_int(s, n, prec, rnd)


def test_dps_to_prec_and_the_constants_match_libmp():
    assert [bf.dps_to_prec(d) for d in range(2000)] == [libmp.dps_to_prec(d) for d in range(2000)]
    for prec in range(1, 1200, 7):
        assert bf._ln2_fixed(prec) == libelefun.ln2_fixed(prec), prec
        assert bf._ln10_fixed(prec) == libelefun.ln10_fixed(prec), prec
        assert bf._e_fixed(prec) == libelefun.e_fixed(prec), prec


def test_exp_is_correctly_rounded_at_every_k_of_the_scans():
    # the scan multiplies |c(n)| by e**((r+v) n) at dps_to_prec(precision + 10)
    # bits; beside the precisions the CLI and the benchmark use, the routes
    # libmp's mpf_exp switches between: a cosh series from 587 to 600 bits
    # and powers of e past 600.  libmp's e**k rounded down and up at 300 more
    # bits enclose e**k, so where both round to the same nearest prec-bit
    # value, that value is e**k correctly rounded.  Where libmp's own
    # rounding to nearest is correct, it is this same tuple.
    scans = {bf.dps_to_prec(p + 10) for p in (10, 15, 20, 30, 50, 100)}
    for prec in sorted(scans | {587, 593, 600, 601, 700, 1000, 2000}):
        for k in range(-5, 3001):
            x = libmp.from_int(k)
            low = libmp.mpf_exp(x, prec + 300, "d")
            high = libmp.mpf_exp(x, prec + 300, "u")
            nearest = libmp.mpf_pos(low, prec, "n")
            assert nearest == libmp.mpf_pos(high, prec, "n"), (k, prec)
            assert bf.exp_int(k, prec) == nearest, (k, prec)


def _nstr(raw, dps):
    return mpmath.nstr(mpmath.mp.make_mpf(raw), dps)


@settings(max_examples=500)
@given(s=VALUES, dps=st.integers(1, 120))
@example(s=libmp.from_man_exp(10**40 - 1, -140), dps=30)  # the nines carry into a new digit
@example(s=libmp.from_man_exp(-(2**1900 + 1), 2000), dps=12)  # past 2**3500
@example(s=libmp.from_man_exp(3, -20000), dps=120)
def test_nstr_matches_mpmath(s, dps):
    assert bf.nstr(s, dps) == _nstr(s, dps)


def test_nstr_nines_zero_and_both_sides_of_the_3500_bit_branch():
    # |exp + bc| > 3500 first divides by a power of ten found at low
    # precision; runs of nines carry through every digit
    for dps in (1, 2, 5, 8, 15, 30, 61):
        assert bf.nstr(bf.ZERO, dps) == _nstr(libmp.fzero, dps) == "0.0"
        for k in (1, dps - 1, dps, dps + 1, dps + 3, dps + 4, 45):
            man = 10 ** max(k, 1) - 1
            bc = man.bit_length()
            for top in (-3501, -3500, -3499, -60, -5, 0, 3, 40, 3499, 3500, 3501, 3700):
                for sign in (1, -1):
                    raw = libmp.from_man_exp(sign * man, top - bc)
                    assert bf.nstr(raw, dps) == _nstr(raw, dps), (dps, k, top, sign)


def test_nstr_of_a_long_digit_string_needs_no_int_str_limit():
    # at dps >= 250 libmp converts the digits in halves; a value at 5000
    # digits converts under Python's default 4300-digit limit too
    raw = libmp.from_rational(10**5000 // 7, 3**9000, 17000, "n")
    assert bf.nstr(raw, 5000) == _nstr(raw, 5000)
