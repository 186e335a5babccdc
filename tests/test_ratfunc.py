import random
from fractions import Fraction

import pytest

from zetalab import Poly, RationalFunction, build_summand
from zetalab.decomp import _principal_parts
from zetalab.ratfunc import _int_poly_gcd


def linear(m):
    """(s + m)"""
    return Poly([m, 1])


def test_normalize_examples():
    # (2s+2)/(2s^2+2s) -> 1/s
    assert RationalFunction(Poly([2, 2]), Poly([0, 2, 2])) == RationalFunction(Poly([1]), Poly([0, 1]))
    # s/s -> 1
    assert RationalFunction(Poly([0, 1]), Poly([0, 1])) == RationalFunction.constant(1)
    # (s^2-1)/(s^2+3s+2) -> (s-1)/(s+2)
    assert RationalFunction(Poly([-1, 0, 1]), Poly([2, 3, 1])) == RationalFunction(
        Poly([-1, 1]), Poly([2, 1])
    )


def test_normalize_idempotent():
    f = RationalFunction(Poly([2, 2]), Poly([0, 2, 2]))
    assert RationalFunction(f.num, f.den) == f


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Poly([1]), Poly())


def test_mul_pow_add_examples():
    one_over = RationalFunction(Poly([1]), linear(1))
    assert one_over**3 == RationalFunction(Poly([1]), linear(1) ** 3)
    # 1/(s+1) - 1/(s+2) = 1/((s+1)(s+2))
    assert one_over + -RationalFunction(Poly([1]), linear(2)) == RationalFunction(
        Poly([1]), linear(1) * linear(2)
    )
    # s/(s+1) * (s+1)/s = 1
    assert RationalFunction(Poly([0, 1]), linear(1)) * RationalFunction(
        linear(1), Poly([0, 1])
    ) == RationalFunction.constant(1)


def test_derivative_examples():
    f = RationalFunction(Poly([1]), linear(1))
    assert f.derivative(1) == RationalFunction(Poly([-1]), linear(1) ** 2)
    cube = f**3
    assert cube.derivative(2) == RationalFunction(Poly([12]), linear(1) ** 5)
    assert cube.derivative(0) == cube


def random_rf(rng, max_deg=4, pole_range=(1, 6)):
    while True:
        num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, max_deg))])
        if not num.is_zero:
            break
    den = Poly([1])
    for _ in range(rng.randint(1, 3)):
        den = den * linear(rng.randint(*pole_range))
    return RationalFunction(num, den)


def brute_derivative(f):
    """Quotient rule with a from-scratch normalization (no shortcuts)."""
    num = f.num.derivative() * f.den - f.num * f.den.derivative()
    return RationalFunction(num, f.den * f.den)


def test_derivative_matches_bruteforce_on_random_inputs():
    rng = random.Random(3)
    for _ in range(60):
        f = random_rf(rng)
        assert f.derivative() == brute_derivative(f)


def test_derivative_bruteforce_with_repeated_factors():
    # repeated-factor denominators stress the gcd(D, D') cancellation the
    # fast path relies on
    rng = random.Random(19)
    for _ in range(10):
        den = linear(1) ** 4 * linear(2) ** 3 * linear(rng.randint(3, 7)) ** 2
        num = Poly([rng.randint(-20, 20) for _ in range(rng.randint(1, 8))])
        if num.is_zero:
            continue
        f = RationalFunction(num, den)
        assert f.derivative() == brute_derivative(f)
        assert f.derivative(2) == brute_derivative(brute_derivative(f))


def test_rational_function_immutable():
    f = RationalFunction(Poly([1]), linear(1))
    with pytest.raises(AttributeError):
        f.num = Poly([2])


def test_derivative_commutes_with_add_and_iterates():
    rng = random.Random(5)
    for _ in range(30):
        f, g = random_rf(rng), random_rf(rng)
        assert (f + g).derivative() == f.derivative() + g.derivative()
        h = f
        for _ in range(3):
            h = h.derivative(1)
        assert h == f.derivative(3)


def test_field_axioms_on_random_inputs():
    rng = random.Random(9)
    for _ in range(25):
        f, g, h = (random_rf(rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == RationalFunction.constant(0)
        assert f * RationalFunction.constant(1) == f


def test_evaluation_and_pole_error():
    f = RationalFunction(Poly([0, -1]), linear(1) * linear(2))
    assert f(1) == Fraction(-1, 6)
    with pytest.raises(ZeroDivisionError):
        f(-1)


def test_int_poly_gcd_known_cases():
    # (s^2 - 1, s^2 + 3s + 2) share (s + 1)
    assert _int_poly_gcd([-1, 0, 1], [2, 3, 1]) == [1, 1]
    assert _int_poly_gcd([2, 2], [4]) == [2]
    assert _int_poly_gcd([1, 2, 1], [1, 1]) == [1, 1]
    assert _int_poly_gcd([1, 0, 1], [2, 1]) == [1]


def test_int_poly_gcd_random_products():
    rng = random.Random(17)
    for _ in range(40):
        g = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        while not any(g):
            g = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        gp = Poly(g)
        a = gp * Poly([rng.randint(-5, 5) for _ in range(3)] + [1])
        b = gp * Poly([rng.randint(-5, 5) for _ in range(2)] + [1])
        got = Poly(_int_poly_gcd(*(list(p.int_coeffs()) for p in (a, b))))
        # gcd must be divisible by g (up to rational scale) and divide both
        assert got.degree >= gp.degree
        for p in (a, b):
            q, r = p.divmod(got)
            assert r.is_zero


def random_moment_poly(rng):
    coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
    coeffs[rng.randrange(len(coeffs))] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Poly(coeffs)


def test_partial_fractions_recombination_random():
    # the partial fractions of G = d^v/ds^v [M(s)**r] recombine to exactly
    # the rational function that build_summand forms by field arithmetic
    rng = random.Random(23)
    for _ in range(40):
        poly = random_moment_poly(rng)
        r, v = rng.randint(2, 5), rng.randint(0, 4)
        parts = _principal_parts(poly, r, v)
        assert parts and all(c != 0 and j >= 1 for (_, j), c in parts.items())
        f = RationalFunction.constant(0)
        for (m, j), c in parts.items():
            f = f + RationalFunction(Poly([c]), linear(m) ** j)
        assert f == build_summand(poly, r, v).summand


def test_partial_fractions_residue_sum_vanishes_for_fast_decay():
    rng = random.Random(31)
    for _ in range(20):
        poly = random_moment_poly(rng)
        r, v = rng.randint(2, 4), rng.randint(0, 3)
        assert build_summand(poly, r, v).summand.decay_degree >= 2
        parts = _principal_parts(poly, r, v)
        assert sum(c for (_, j), c in parts.items() if j == 1) == 0
