"""The fast kernels return exactly what their plain references return.

The integer kernels are checked against the Fraction spellings in
``fraction_reference``, and the blocked Monte Carlo oracle against the
one-pass spelling in ``mc_reference``.
"""

import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
import mc_reference
from zetalab import (
    Poly,
    decompose,
    direct_sum_value,
    eval_combination,
    integrate_poly_01,
    legendre_coeffs,
    moment_from_coeffs,
)
from zetalab import verify
from zetalab.decomp import _principal_parts
from zetalab.verify import (
    _cauchy_bound,
    _chebyshev_weights,
    _head_sum,
    _moment_expansion,
    _zeta_rational,
)


def test_chebyshev_weights_match_reference():
    for n in range(1, 120):
        assert _chebyshev_weights(n) == ref.chebyshev_weights(n)


@pytest.mark.parametrize("digits", [20, 60, 100, 140])
def test_zeta_rational_matches_reference(digits):
    # up and down again: the memo steps its powers up in j and restarts below
    for j in [*range(2, 13), *range(12, 1, -1)]:
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
            for v, parts in enumerate(ref.principal_parts_upto(poly, r, 3)):
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


@settings(max_examples=60)
@given(coeffs=st.one_of(_dense, _sparse, _rational).filter(any))
def test_moment_is_canonical_and_the_integral_on_random_polys(coeffs):
    poly = Poly(coeffs)
    num, den = moment_from_coeffs(poly)
    assert den.coeffs[-1] == 1
    for l, a in enumerate(poly.coeffs):
        if a:
            assert den(-l - 1) == 0 and num(-l - 1) != 0
    for s in range(6):
        assert num(s) / den(s) == integrate_poly_01(Poly([0] * s + [1]) * poly)


def test_moment_division_remainder_raises_under_python_O():
    # Q is divisible by each of its linear factors by construction; a
    # remainder must raise RuntimeError, not pass an assert that -O strips.
    # Building Q on shifted roots leaves one.
    code = (
        "from zetalab import legendre_coeffs, moments\n"
        "times_linear = moments._times_linear\n"
        "moments._times_linear = lambda p, c: times_linear(p, c + 1)\n"
        "try:\n"
        "    moments.moment_from_coeffs(legendre_coeffs(3))\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "does not divide the denominator" in proc.stdout


# -- the direct sum, read off the moment, against the expanded summand G --------


def _assert_direct_kernels_match(spec):
    poly, r, v = spec.poly, spec.r, spec.v
    order = spec.decay_degree + 10
    numerators, denominator = _moment_expansion(poly, r, v, order)
    expected = ref.expansion_at_infinity(spec.summand, order)
    assert [Fraction(c, denominator) for c in numerators] == expected
    K = len(poly.coeffs) + 3
    assert _head_sum(poly, r, v, K) == ref.series_partial_sum(spec, K)
    # s = -radius, on the circle, is the point nearest the poles
    radius = 2 * len(poly.coeffs)
    assert abs(ref.evaluate(spec.summand, -radius)) <= _cauchy_bound(poly, r, v, radius)


def test_direct_sum_kernels_match_reference_on_legendre_grid():
    for n in range(21):
        for r in (2, 3, 4):
            for spec in ref.summands(legendre_coeffs(n), r, 3):
                _assert_direct_kernels_match(spec)


@settings(max_examples=40)
@given(
    coeffs=st.one_of(_dense, _sparse, _rational).filter(any),
    r=st.integers(2, 4),
    v=st.integers(0, 3),
)
def test_direct_sum_kernels_match_reference_on_random_polys(coeffs, r, v):
    _assert_direct_kernels_match(ref.build_summand(Poly(coeffs), r, v))


def test_direct_sum_encloses_the_exact_value_at_n_60():
    poly = legendre_coeffs(60)
    d = direct_sum_value(poly, 3, 2, Fraction(1, 10**30))
    e = eval_combination(decompose(poly, 3, 2), 30)
    with mpmath.workdps(60):
        assert d.error_bound <= mpmath.mpf("1e-30")
        assert abs(d.value - e.value) <= d.error_bound + e.error_bound


def test_inexact_head_division_raises_under_python_O():
    # every division in the direct sum's common denominators is exact by
    # construction; a remainder must raise, not pass an assert that -O strips
    code = (
        "from zetalab import legendre_coeffs, verify\n"
        "verify.divmod = lambda a, b: (a // b, 1)\n"
        "try:\n"
        "    verify.direct_sum_value(legendre_coeffs(2), 2, 1, '1e-10')\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "does not divide the common denominator" in proc.stdout


# -- the Monte Carlo oracle, in row blocks, against its one-pass spelling -------


@pytest.mark.parametrize("n", [0, 1, 2, 5, 30])
def test_mc_integral_matches_reference_on_legendre_grid(n):
    poly = legendre_coeffs(n)
    for r in range(2, 7):
        for v in range(5):
            for z in (0.0, 0.5, 1.0):
                args = (poly, r, v, z, 10**4 + 1, n + r)
                assert verify.mc_integral(*args) == mc_reference.mc_integral(*args), (r, v, z)


@pytest.mark.parametrize("samples", [10**4 + 1, 70001, 131073])
def test_mc_integral_matches_reference_off_the_block_and_chunk_sizes(samples):
    # the last block of a chunk, and the last chunk, come up short
    for n, r, v, z in ((2, 2, 0, 0.0), (1, 2, 1, 0.0), (2, 3, 2, 0.0), (30, 5, 4, 1.0)):
        args = (legendre_coeffs(n), r, v, z, samples, 3)
        assert verify.mc_integral(*args) == mc_reference.mc_integral(*args), (n, r, v, z)


@settings(max_examples=40)
@given(
    coeffs=st.one_of(_dense, _sparse).filter(any),
    r=st.integers(2, 5),
    v=st.integers(0, 4),
    z=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    seed=st.integers(0, 2**64 - 1),
)
def test_mc_integral_matches_reference_on_random_integer_polys(coeffs, r, v, z, seed):
    args = (Poly(coeffs), r, v, z, 10**4 + 1, seed)
    assert verify.mc_integral(*args) == mc_reference.mc_integral(*args)


class _PlantedDraws:
    """A chunk's generator whose first draw carries exact singular points.

    Every seventh row, from row 0, is all 1.0: product 1, always singular.
    Every seventh row from row 3 starts with 0.0: product 0, singular only
    under a log power.  The redraws come from the real stream.
    """

    def __init__(self, rng):
        self._rng = rng
        self._first = True

    def random(self, shape):
        u = self._rng.random(shape)
        if self._first:
            self._first = False
            u[::7] = 1.0
            u[3::7, 0] = 0.0
        return u


def test_mc_rejection_redraws_singular_samples_like_the_reference(monkeypatch):
    real = verify._chunk_rng
    monkeypatch.setattr(
        verify,
        "_chunk_rng",
        lambda seed, chunk: _PlantedDraws(real(seed, chunk)) if chunk == 0 else real(seed, chunk),
    )
    m = verify._MC_CHUNK
    ones, zeros = len(range(0, m, 7)), len(range(3, m, 7))
    for v in range(4):
        for z in (0.0, 0.5):
            args = (legendre_coeffs(1), 3, v, z, 70001, 9)
            est = verify.mc_integral(*args)
            assert est.rejected == (ones + zeros if v else ones), (v, z)
            assert est == mc_reference.mc_integral(*args), (v, z)
