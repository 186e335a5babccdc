"""Rational functions on their known denominators: the reference summand's
quotient-rule recurrence and the principal parts it must recombine from."""

import random
from fractions import Fraction

import pytest

from fraction_reference import (
    build_summand,
    derivatives,
    evaluate,
    library_principal_parts,
    linear_product,
    recombine,
)
from zetalab import Poly, moment_from_coeffs


def linear(m):
    """(s + m)"""
    return Poly([m, 1])


def test_derivative_examples():
    # d/ds 1/(s+1) = -1/(s+1)**2 and d^2/ds^2 (s+1)**-3 = 12 (s+1)**-5
    assert derivatives(Poly([1]), linear(1), 1, 1) == [Poly([1]), Poly([-1])]
    assert derivatives(Poly([1]), linear(1), 3, 2)[2] == Poly([12])
    assert derivatives(Poly([1]), linear(1), 3, 0) == [Poly([1])]


def random_case(rng):
    """(num, q, e): num / q**e with q a product of distinct linear factors."""
    while True:
        num = Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))])
        if not num.is_zero:
            break
    q = linear_product(rng.sample(range(1, 7), rng.randint(1, 3)))
    return num, q, rng.randint(1, 4)


def brute_derivative(num, den):
    """The plain quotient rule, with no cancellation at all."""
    return num.derivative() * den - num * den.derivative(), den * den


def assert_recurrence_matches_quotient_rule(num, q, e, v):
    f = (num, q**e)
    for k, n_k in enumerate(derivatives(num, q, e, v)):
        # n_k / q**(e+k) == f[0] / f[1], by cross-multiplication
        assert n_k * f[1] == f[0] * q ** (e + k)
        f = brute_derivative(*f)


def test_derivative_matches_bruteforce_on_random_inputs():
    rng = random.Random(3)
    for _ in range(60):
        assert_recurrence_matches_quotient_rule(*random_case(rng), 2)


def test_derivative_bruteforce_with_repeated_factors():
    # num / ((s+1)**4 (s+2)**3 (s+c)**2), written over Q**4 with
    # Q = (s+1)(s+2)(s+c): a numerator that shares factors with Q
    rng = random.Random(19)
    for _ in range(10):
        c = rng.randint(3, 7)
        num = Poly([rng.randint(-20, 20) for _ in range(rng.randint(1, 8))])
        if num.is_zero:
            continue
        q = linear(1) * linear(2) * linear(c)
        assert_recurrence_matches_quotient_rule(num * linear(2) * linear(c) ** 2, q, 4, 2)


def test_derivative_commutes_with_add_and_iterates():
    rng = random.Random(5)
    for _ in range(30):
        f, q, e = random_case(rng)
        g = random_case(rng)[0]
        # over one denominator q**e the derivative is linear in the numerator
        assert derivatives(f + g, q, e, 1)[1] == derivatives(f, q, e, 1)[1] + derivatives(g, q, e, 1)[1]
        h = f
        for k in range(3):
            h = derivatives(h, q, e + k, 1)[1]
        assert h == derivatives(f, q, e, 3)[3]


def test_evaluation_and_pole_error():
    f = moment_from_coeffs(Poly([1, -2]))  # -s / ((s+1)(s+2))
    assert evaluate(f, 1) == Fraction(-1, 6)
    with pytest.raises(ZeroDivisionError):
        evaluate(f, -1)


def random_moment_poly(rng):
    coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
    coeffs[rng.randrange(len(coeffs))] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Poly(coeffs)


def test_partial_fractions_recombination_random():
    # the partial fractions of G = d^v/ds^v [M(s)**r] = N_v / Q**(r+v)
    # recombine to exactly the numerator that the quotient rule forms
    rng = random.Random(23)
    for _ in range(40):
        poly = random_moment_poly(rng)
        r, v = rng.randint(2, 5), rng.randint(0, 4)
        parts = library_principal_parts(poly, r, v)
        assert parts and all(c != 0 and j >= 1 for (_, j), c in parts.items())
        assert recombine(parts, poly, r + v) == build_summand(poly, r, v).summand[0]


def test_partial_fractions_residue_sum_vanishes_for_fast_decay():
    rng = random.Random(31)
    for _ in range(20):
        poly = random_moment_poly(rng)
        r, v = rng.randint(2, 4), rng.randint(0, 3)
        assert build_summand(poly, r, v).decay_degree >= 2
        parts = library_principal_parts(poly, r, v)
        assert sum(c for (_, j), c in parts.items() if j == 1) == 0
