import math
from fractions import Fraction

import pytest

from zetalab import binomial, generalized_harmonic, lcm_upto


def pascal_binomial(n, k):
    """Independent oracle: Pascal-triangle recurrence."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if k < len(row) else 0


def test_binomial_examples():
    assert binomial(4, 2) == 6
    for n in range(12):
        assert binomial(n, 0) == 1
    assert binomial(30, 15) == 155117520
    assert binomial(30, 15) == pascal_binomial(30, 15)


def test_binomial_k_above_n_is_zero():
    assert binomial(3, 5) == 0
    assert binomial(0, 1) == 0


def test_binomial_matches_pascal_oracle():
    for n in range(0, 25, 3):
        for k in range(0, n + 3):
            assert binomial(n, k) == pascal_binomial(n, k)


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def pairwise_lcm(n):
    """Independent oracle: fold with gcd identity lcm(a,b) = a*b/gcd."""
    out = 1
    for m in range(1, n + 1):
        out = out * m // math.gcd(out, m)
    return out


def test_lcm_upto_examples():
    assert lcm_upto(0) == 1
    assert lcm_upto(1) == 1
    assert lcm_upto(6) == 60
    assert lcm_upto(10) == 2520
    for n in range(0, 40):
        assert lcm_upto(n) == pairwise_lcm(n)


def test_generalized_harmonic_examples():
    assert generalized_harmonic(0, 2) == 0
    assert generalized_harmonic(3, 2) == Fraction(49, 36)
    assert generalized_harmonic(3, 1) == Fraction(11, 6)
    assert generalized_harmonic(0, 1) == 0
    assert generalized_harmonic(4, 1) == Fraction(25, 12)


def test_generalized_harmonic_rejects_bad_args():
    with pytest.raises(ValueError):
        generalized_harmonic(-1, 2)
    with pytest.raises(ValueError):
        generalized_harmonic(3, 0)
