import math
from fractions import Fraction

import pytest

from zetalab import Poly, integrate_poly_01, legendre_coeffs


def rodrigues_coeffs(n):
    """Independent oracle: expand x**n (1-x)**n and differentiate n times.

    Works purely on coefficient lists; never touches the closed form.
    """
    # x**n * (1-x)**n = sum_k (-1)**k C(n,k) x**(n+k)
    coeffs = [0] * (2 * n + 1)
    for k in range(n + 1):
        coeffs[n + k] = (-1) ** k * math.comb(n, k)
    for _ in range(n):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:]
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    assert all(c % fact == 0 for c in coeffs)
    return [c // fact for c in coeffs]


def test_legendre_small_examples():
    assert legendre_coeffs(0) == Poly([1])
    assert legendre_coeffs(1) == Poly([1, -2])
    assert legendre_coeffs(2) == Poly([1, -6, 6])


def test_legendre_matches_rodrigues_oracle():
    for n in range(11):
        assert legendre_coeffs(n) == Poly(rodrigues_coeffs(n))


def test_legendre_endpoint_values():
    for n in range(11):
        p = legendre_coeffs(n)
        assert p(0) == 1
        assert p(1) == (-1) ** n


def test_legendre_orthogonality_small():
    for n in range(6):
        for m in range(6):
            val = integrate_poly_01(legendre_coeffs(n) * legendre_coeffs(m))
            assert val == (Fraction(1, 2 * n + 1) if n == m else 0)


def test_legendre_rejects_negative():
    with pytest.raises(ValueError):
        legendre_coeffs(-1)


def test_integrate_examples():
    assert integrate_poly_01(Poly([1])) == 1
    assert integrate_poly_01(Poly([0, 1])) == Fraction(1, 2)
    # P_1 * P_1 = 1 - 4x + 4x^2 integrates to 1 - 2 + 4/3
    assert legendre_coeffs(1) * legendre_coeffs(1) == Poly([1, -4, 4])
    assert integrate_poly_01(Poly([1, -4, 4])) == Fraction(1, 3)
    assert integrate_poly_01([Fraction(1, 2), Fraction(1, 3)]) == Fraction(2, 3)


def test_poly_canonical_form():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert hash(Poly([1, 2, 0, 0])) == hash(Poly([1, 2]))
    assert repr(Poly([Fraction(1, 2), -3, 0])) == "Poly(['1/2', '-3'])"
    assert Poly([0, 0]).is_zero
    assert not Poly([0, 0])
    assert Poly([3])
    assert Poly().degree == -1
    assert Poly([3]).degree == 0
    # a Poly equals only a Poly, not its coefficient sequence
    assert Poly([1, 2]) != [1, 2]
    assert Poly([1, 2]) != (Fraction(1), Fraction(2))


def test_int_coefficients_stay_ints_and_equal_their_fraction_spelling():
    assert [type(c) for c in Poly([1, -2]).coeffs] == [int, int]
    assert [type(c) for c in Poly([Fraction(1, 2), 0.25]).coeffs] == [Fraction, Fraction]
    # Fraction(c, l + 1) keeps the integral exact where c / (l + 1) is a float
    total = integrate_poly_01(Poly([1, 1]))
    assert type(total) is Fraction and total == Fraction(3, 2)
    p, q = Poly([2, 3]), Poly([Fraction(2), Fraction(3)])
    assert p == q and hash(p) == hash(q)


def test_poly_arithmetic_basics():
    p = Poly([1, 1])
    q = Poly([-1, 1])
    assert p * q == Poly([-1, 0, 1])
    assert p + q == Poly([0, 2])
    assert p - p == Poly()
    assert p**3 == Poly([1, 3, 3, 1])
    assert p * Poly() == Poly() * p == Poly()
    with pytest.raises(ValueError):
        p**-1
    assert Poly([1, 2, 3]).derivative() == Poly([2, 6])
    assert Poly([5]).derivative().is_zero


def test_poly_immutable():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = ()
