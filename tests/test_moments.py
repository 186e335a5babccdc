from fractions import Fraction

import mpmath
import pytest

from fraction_reference import (
    build_summand,
    envelope_constant,
    evaluate,
    series_partial_sum,
    tail_bound,
    term_value,
)
from zetalab import Poly, legendre_coeffs, moment_closed_form, moment_from_coeffs


def linear(m):
    return Poly([m, 1])


def test_moment_from_coeffs_examples():
    assert moment_from_coeffs(Poly([1])) == (Poly([1]), linear(1))
    # 1/(s+1) - 2/(s+2) = -s/((s+1)(s+2))
    assert moment_from_coeffs(Poly([1, -2])) == (Poly([0, -1]), linear(1) * linear(2))
    # three partial fractions combine to s(s-1)/((s+1)(s+2)(s+3))
    assert moment_from_coeffs(Poly([1, -6, 6])) == (
        Poly([0, -1, 1]), linear(1) * linear(2) * linear(3)
    )


def test_moment_zero_poly_rejected():
    with pytest.raises(ValueError):
        moment_from_coeffs(Poly())


def test_moment_is_the_integral():
    # brute-force oracle: integrate x^s * poly termwise for integer s
    from zetalab import integrate_poly_01

    poly = Poly([3, 0, -5, 1])
    m = moment_from_coeffs(poly)
    for s in range(0, 8):
        xs = Poly([0] * s + [1])
        assert evaluate(m, s) == integrate_poly_01(xs * poly)


def test_closed_form_examples():
    assert moment_closed_form(0) == (Poly([1]), linear(1))
    assert moment_closed_form(1) == moment_from_coeffs(Poly([1, -2]))
    assert moment_closed_form(2) == moment_from_coeffs(Poly([1, -6, 6]))
    with pytest.raises(ValueError):
        moment_closed_form(-1)


def test_closed_form_matches_coefficient_sum_to_20():
    for n in range(21):
        assert moment_closed_form(n) == moment_from_coeffs(legendre_coeffs(n))


def uncorrected_product_form(n):
    """The product form as naively transcribed: extra j=0 factor (s+1)/s.

    Negative control: this fails the n=0 sanity check (gives 1/s instead
    of 1/(s+1)), which is why the package validates the closed form against
    the coefficient-sum moment.  Returned unreduced, as a (num, den) product.
    """
    num, den = Poly([1]), linear(1)
    for j in range(n + 1):
        num, den = num * Poly([1 - j, 1]), den * Poly([j, 1])
    return num, den


def same_function(f, g):
    return f[0] * g[1] == g[0] * f[1]


def test_uncorrected_form_fails_at_n0():
    assert same_function(uncorrected_product_form(0), (Poly([1]), Poly([0, 1])))
    assert not same_function(uncorrected_product_form(0), moment_from_coeffs(legendre_coeffs(0)))


def test_build_summand_examples():
    p0 = legendre_coeffs(0)
    s = build_summand(p0, 3, 2)
    assert s.summand == (Poly([12]), linear(1) ** 5)
    assert s.decay_degree == 5
    s = build_summand(p0, 2, 0)
    assert s.summand == (Poly([1]), linear(1) ** 2)
    assert s.decay_degree == 2
    s = build_summand(p0, 2, 1)
    assert s.summand == (Poly([-2]), linear(1) ** 3)
    assert s.decay_degree == 3


def test_build_summand_decay_at_least_r_plus_v():
    for n in range(4):
        for r in (2, 3):
            for v in range(3):
                s = build_summand(legendre_coeffs(n), r, v)
                assert s.decay_degree >= r + v
                assert s.decay_degree >= 2


def test_build_summand_rejects_r1():
    with pytest.raises(ValueError, match="diverges"):
        build_summand(legendre_coeffs(0), 1, 0)
    with pytest.raises(ValueError):
        build_summand(legendre_coeffs(0), 2, -1)


def test_term_value_examples():
    s32 = build_summand(legendre_coeffs(0), 3, 2)
    assert term_value(s32, 0) == 12
    assert term_value(s32, 1) == Fraction(3, 8)
    s20 = build_summand(legendre_coeffs(1), 2, 0)
    assert term_value(s20, 2) == Fraction(1, 36)  # M_1(2)^2 = (2/12)^2


def test_series_partial_sum_examples():
    s = build_summand(legendre_coeffs(0), 2, 0)
    assert series_partial_sum(s, 2) == Fraction(5, 4)
    assert series_partial_sum(build_summand(legendre_coeffs(0), 3, 2), 1) == 12
    s21 = build_summand(legendre_coeffs(0), 2, 1)
    assert series_partial_sum(s21, 3) == Fraction(-251, 108)
    with pytest.raises(ValueError):
        series_partial_sum(s, 0)


def test_term_positive_for_p0_even_v():
    for r in (2, 3):
        for v in (0, 2):
            s = build_summand(legendre_coeffs(0), r, v)
            assert all(term_value(s, k) > 0 for k in range(100))


def test_tail_bound_p0_r2_window():
    # true tail of sum 1/(k+1)^2 is below 1/K; bound must sit in
    # [1/(K+1), 10/K]
    s = build_summand(legendre_coeffs(0), 2, 0)
    for K in (2, 5, 10, 100, 10**6):
        b = tail_bound(s, K)
        assert Fraction(1, K + 1) <= b <= Fraction(10, K)


def test_tail_bound_p0_r3_v2_at_10():
    s = build_summand(legendre_coeffs(0), 3, 2)
    b = tail_bound(s, 10)
    true_tail = mpmath.mpf(0)
    with mpmath.workdps(30):
        true_tail = 12 * (mpmath.zeta(5) - sum(mpmath.mpf(1) / (k + 1) ** 5 for k in range(10)))
        bf = mpmath.mpf(b.numerator) / b.denominator
        assert bf >= true_tail
        assert bf <= 10 * true_tail


def test_tail_bound_monotone_in_k():
    for n in (0, 2):
        for r, v in ((2, 0), (3, 2)):
            s = build_summand(legendre_coeffs(n), r, v)
            bounds = [tail_bound(s, K) for K in range(2, 40)]
            assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_tail_bound_requires_k_at_least_2():
    s = build_summand(legendre_coeffs(0), 2, 0)
    with pytest.raises(ValueError, match="increase K"):
        tail_bound(s, 1)


def test_partial_sum_plus_tail_brackets_known_sums():
    # P_0 cases where the series is an exact zeta multiple
    cases = [
        (2, 0, lambda: mpmath.zeta(2)),
        (3, 0, lambda: mpmath.zeta(3)),
        (2, 1, lambda: -2 * mpmath.zeta(3)),
        (3, 2, lambda: 12 * mpmath.zeta(5)),
    ]
    with mpmath.workdps(40):
        for r, v, true in cases:
            s = build_summand(legendre_coeffs(0), r, v)
            for K in (5, 20, 80):
                partial = series_partial_sum(s, K)
                pf = mpmath.mpf(partial.numerator) / partial.denominator
                tb = tail_bound(s, K)
                tbf = mpmath.mpf(tb.numerator) / tb.denominator
                assert abs(true() - pf) <= tbf


def test_envelope_constant_dominates():
    # |G(s)| * s^d <= C on [K-1, inf), spot-checked on a sampled grid
    for n in (0, 1, 3):
        for r, v in ((2, 0), (2, 1), (3, 2)):
            s = build_summand(legendre_coeffs(n), r, v)
            K = 10
            c = envelope_constant(s, K)
            d = s.decay_degree
            for x in [Fraction(K - 1), Fraction(K), Fraction(37, 2), 50, 1000]:
                assert abs(evaluate(s.summand, x)) * x**d <= c
