"""The integer kernels return exactly what the Fraction references return."""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from zetalab import Poly, decompose, legendre_coeffs
from zetalab.decomp import _principal_parts
from zetalab.verify import _chebyshev_weights, _zeta_rational


def test_chebyshev_weights_match_reference():
    for n in range(1, 120):
        assert _chebyshev_weights(n) == ref.chebyshev_weights(n)


@pytest.mark.parametrize("digits", [20, 60, 100, 140])
def test_zeta_rational_matches_reference(digits):
    for j in range(2, 13):
        assert _zeta_rational(j, digits) == ref.zeta_rational(j, digits)


def test_non_integer_weight_raises_under_python_O():
    # a division that leaves a remainder must raise, not pass an assert that
    # -O strips; the module's divmod is replaced by one that always does
    code = (
        "from zetalab import verify\n"
        "verify.divmod = lambda a, b: (a // b, 1)\n"
        "for call in (lambda: verify._chebyshev_weights(10), lambda: verify.zeta_value(3, 20)):\n"
        "    try:\n"
        "        call()\n"
        "    except RuntimeError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert all("is not an integer" in line for line in lines)


def test_decompose_and_principal_parts_match_reference_on_legendre_grid():
    for n in range(41):
        poly = legendre_coeffs(n)
        for r in (2, 3, 4):
            for v in range(4):
                parts = ref.principal_parts(poly, r, v)
                assert _principal_parts(poly, r, v) == parts, (n, r, v)
                assert decompose(poly, r, v) == ref.collapse(parts, v), (n, r, v)


_small = st.integers(-9, 9)
_dense = st.lists(_small, min_size=1, max_size=9)
_sparse = st.lists(st.sampled_from([0, 0, 0, -3, 1, 7]), min_size=1, max_size=15)
_rational = st.lists(
    st.builds(Fraction, _small, st.integers(1, 12)), min_size=1, max_size=7
)


@settings(max_examples=60)
@given(
    coeffs=st.one_of(_dense, _sparse, _rational).filter(any),
    r=st.integers(2, 5),
    v=st.integers(0, 4),
)
def test_integer_kernels_match_reference_on_random_polys(coeffs, r, v):
    poly = Poly(coeffs)
    parts = ref.principal_parts(poly, r, v)
    assert _principal_parts(poly, r, v) == parts
    assert decompose(poly, r, v) == ref.collapse(parts, v)
