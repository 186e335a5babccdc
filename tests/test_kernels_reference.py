"""The fast kernels return exactly what their plain references return.

The integer kernels are checked against the Fraction spellings in
``fraction_reference``, and the blocked Monte Carlo oracle against the
one-pass spelling in ``mc_reference``.
"""

import itertools
import math
import subprocess
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
import mc_reference
from zetalab import (
    Poly,
    ZetaCombination,
    decompose,
    direct_sum_value,
    eval_combination,
    integrate_poly_01,
    legendre_coeffs,
    moment_from_coeffs,
    rationality_criterion,
)
from zetalab import cli, decomp, verify
from zetalab.verify import (
    _cauchy_bound,
    _chebyshev_increments,
    _euler_maclaurin_sum,
    _head_sum,
    _moment_expansion,
    _zeta_rational,
)


def test_generalized_harmonic_examples():
    assert ref.generalized_harmonic(0, 2) == 0
    assert ref.generalized_harmonic(3, 2) == Fraction(49, 36)
    assert ref.generalized_harmonic(3, 1) == Fraction(11, 6)
    assert ref.generalized_harmonic(0, 1) == 0
    assert ref.generalized_harmonic(4, 1) == Fraction(25, 12)


def test_generalized_harmonic_rejects_bad_args():
    with pytest.raises(ValueError):
        ref.generalized_harmonic(-1, 2)
    with pytest.raises(ValueError):
        ref.generalized_harmonic(3, 0)


def test_chebyshev_weights_match_reference():
    for n in range(1, 120):
        assert list(itertools.accumulate(_chebyshev_increments(n))) == ref.chebyshev_weights(n)


# digits 21, 22, 23 give n = 31, 32, 34 and digits 33, 34, 35 give n = 47, 48,
# 49: just below, at and just above the eta caps 32 and 48
@pytest.mark.parametrize("digits", [20, 21, 22, 23, 33, 34, 35, 60, 100, 140, 500])
def test_zeta_rational_matches_reference(digits):
    for j in [*range(2, 13), *range(12, 1, -1)]:
        assert _zeta_rational(j, digits) == ref.zeta_rational(j, digits)


def test_non_integer_weight_raises_under_python_O():
    # a division that leaves a remainder must raise, not pass an assert that
    # -O strips; the module's divmod is replaced by one that always does
    code = (
        "from zetalab import verify\n"
        "verify.divmod = lambda a, b: (a // b, 1)\n"
        "for call in (lambda: verify._chebyshev_increments(10), lambda: verify.zeta_value(3, 20)):\n"
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


# -- the two principal-parts routes: the Legendre family's product form and the
# general correlation sums, which stay as the only route off the family and as
# the product route's oracle on it


def _general_route_only(monkeypatch):
    monkeypatch.setattr(decomp, "_is_shifted_legendre", lambda a: False)


def _refuse(*args):
    raise AssertionError("this route must not run")


def test_decompose_and_principal_parts_match_reference_on_legendre_grid(monkeypatch):
    grid = [(n, r) for n in range(41) for r in (2, 3, 4)]
    expected = {(n, r): ref.principal_parts_upto(legendre_coeffs(n), r, 3) for n, r in grid}
    for general in (False, True):
        if general:
            _general_route_only(monkeypatch)
        for (n, r), upto in expected.items():
            poly = legendre_coeffs(n)
            for v, parts in enumerate(upto):
                assert ref.library_principal_parts(poly, r, v) == parts, (n, r, v, general)
                assert decompose(poly, r, v) == ref.collapse(parts, v), (n, r, v, general)


def test_product_route_equals_the_general_route_past_the_reference_grid(monkeypatch):
    grid = [(n, r) for n in range(45, 151, 15) for r in (2, 3, 4)] + [(n, 5) for n in range(21)]
    cases = [(n, r, v) for n, r in grid for v in range(4)]
    product = {
        (n, r, v): ref.library_principal_parts(legendre_coeffs(n), r, v) for n, r, v in cases
    }
    _general_route_only(monkeypatch)
    for n, r, v in cases:
        assert ref.library_principal_parts(legendre_coeffs(n), r, v) == product[n, r, v], (n, r, v)


def test_the_legendre_family_takes_the_product_route_and_near_misses_do_not(monkeypatch, capsys):
    # no timing: with the general route refused, the family must still
    # decompose, so a silent fall-back to the O(n**2 r) sums fails here
    with monkeypatch.context() as patch:
        patch.setattr(decomp, "_correlation_laurent", _refuse)
        for n in (0, 1, 2, 200):
            decompose(legendre_coeffs(n), 3, 2)
        assert len(rationality_criterion(3, 2, 30, 50)) == 31
        assert cli.main(["scan", "--r", "3", "--v", "2", "--n-max", "30"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 32  # header and n = 0..30
    # with the product route refused, polynomials one step off the family
    # must take the general route and still be exact
    monkeypatch.setattr(decomp, "_legendre_laurent", _refuse)
    for n in (1, 5):
        a = list(legendre_coeffs(n).coeffs)
        near = [
            [2 * c for c in a],
            [-c for c in a],
            [c / 3 for c in a],
            a[:-1] + [a[-1] + 1],
            a[:-1] + [a[-1] - 1],
        ]
        for coeffs in near:
            for r, v in ((2, 0), (3, 2)):
                poly = Poly(coeffs)
                expected = ref.collapse(ref.principal_parts(poly, r, v), v)
                assert decompose(poly, r, v) == expected, (coeffs, r, v)


def test_the_family_check_agrees_with_the_ratio_walk():
    family = [list(legendre_coeffs(n).coeffs) for n in range(61)]
    assert all(decomp._is_shifted_legendre(a) for a in family)
    variants = [a[:-1] for a in family[1:13]]  # P_0 cut short is no polynomial
    for a in family[:13]:
        variants += [a[:l] + [a[l] + d] + a[l + 1 :] for l in range(len(a)) for d in (-1, 1)]
        variants += [[-c for c in a], [2 * c for c in a], a + [1], a + [-1], a + [a[-1]]]
    for a in family + variants:
        assert decomp._is_shifted_legendre(a) == ref.is_shifted_legendre_walk(a), a


def test_a_rational_multiple_of_the_family_takes_the_product_route_scaled_once(monkeypatch):
    # P_n / A clears to P_n with scale A, so its principal parts are P_n's over A**r
    cases = []
    for n in range(13):
        a = legendre_coeffs(n).coeffs
        for r, v in ((2, 0), (2, 1), (3, 2), (4, 1)):
            combo = decompose(legendre_coeffs(n), r, v)
            for A in (2, 3, 12):
                expected = ZetaCombination.make(
                    {j: q / A**r for j, q in combo.zeta}, combo.constant / A**r
                )
                cases.append((Poly([Fraction(c, A) for c in a]), r, v, expected))
    with monkeypatch.context() as patch:
        patch.setattr(decomp, "_correlation_laurent", _refuse)
        for poly, r, v, expected in cases:
            assert decompose(poly, r, v) == expected, (poly, r, v)
    _general_route_only(monkeypatch)
    for poly, r, v, expected in cases:
        assert decompose(poly, r, v) == expected, (poly, r, v)


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
    assert ref.library_principal_parts(poly, r, v) == parts
    assert decompose(poly, r, v) == ref.collapse(parts, v)


@settings(max_examples=60)
@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=9).filter(any),
    rv=st.one_of(st.just((3, 2)), st.tuples(st.integers(2, 4), st.integers(0, 3))),
)
@example(coeffs=[3, -1, 4], rv=(3, 2))
@example(coeffs=[1], rv=(3, 2))
def test_report_clears_in_integers_what_fractions_clear(coeffs, rv):
    r, v = rv
    poly = Poly(coeffs)
    rep = decomp.decomposition_report(poly, r, v)
    fields = {k: getattr(rep, k) for k in ref.report_fields(rep.combo, rep.n, r, v)}
    assert fields == ref.report_fields(rep.combo, rep.n, r, v)
    assert type(rep.D) is int and (rep.B is None or type(rep.B) is type(rep.G) is int)


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
        "from zetalab import decomp, legendre_coeffs\n"
        "times_linear = decomp._times_linear\n"
        "decomp._times_linear = lambda p, c: times_linear(p, c + 1)\n"
        "try:\n"
        "    decomp.moment_from_coeffs(legendre_coeffs(3))\n"
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


# (n, r, v, digits): the benchmark's three crosschecks at precision 30 and at
# the --tiny precision 10, its float-tier direct sum, P_20 and P_60 at 30 and
# 163 digits, and P_2 at 163 digits, where the remainders start to grow before
# the first K meets the target, so K doubles
@pytest.mark.parametrize(
    "n, r, v, digits",
    [
        (2, 2, 0, 30), (1, 2, 1, 30), (2, 3, 2, 30), (2, 3, 2, 10), (0, 2, 0, 7),
        (20, 3, 2, 30), (20, 3, 2, 163), (60, 3, 2, 30), (60, 3, 2, 163), (2, 3, 2, 163),
    ],
)
def test_euler_maclaurin_sum_matches_the_fraction_loop(n, r, v, digits):
    args = (legendre_coeffs(n), r, v, Fraction(1, 10**digits))
    assert _euler_maclaurin_sum(*args) == ref.euler_maclaurin_sum(*args)


@settings(max_examples=40)
@given(
    coeffs=st.one_of(_dense, _sparse).filter(any),
    r=st.integers(2, 4),
    v=st.integers(0, 3),
    digits=st.integers(1, 40),
)
def test_euler_maclaurin_sum_matches_the_fraction_loop_on_random_integer_polys(coeffs, r, v, digits):
    args = (Poly(coeffs), r, v, Fraction(1, 10**digits))
    assert _euler_maclaurin_sum(*args) == ref.euler_maclaurin_sum(*args)


def test_bernoulli_numbers_from_the_tangent_numbers_match_mpmath():
    # B_2..B_200 in lowest terms, read off tables of 16, 32, 64 and 128 entries
    evens = range(2, 201, 2)
    assert [verify._bernoulli(n) for n in evens] == [mpmath.bernfrac(n) for n in evens]


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


def test_splitmix64_reference_gives_the_published_outputs():
    outputs = [mc_reference.splitmix64(1234567, k) for k in (1, 2, 3)]
    assert outputs == [6457827717110365317, 3203168211198807973, 9817491932198370423]


@pytest.mark.parametrize("seed", [0, 1, -5, 2**64 - 1])
@pytest.mark.parametrize("chunk", [0, 1, 5, 2**24 - 1])
def test_chunk_draws_are_the_integer_splitmix64_stream(seed, chunk):
    # stretches of counters spread over the whole 2**64 range, the last
    # within 2**40 of its end; every state x0 + k * gamma wraps
    first = chunk * 2**40 + 1
    rows = verify._draws(seed % 2**64, first, (400, 3))
    more = verify._draws(seed % 2**64, first + 1200, (5, 3))
    assert rows.ravel().tolist() == mc_reference.stream_draws(seed, first, 1200)
    assert more.ravel().tolist() == mc_reference.stream_draws(seed, first + 1200, 15)


@pytest.mark.parametrize(
    "shape",
    [
        (1,),
        (verify._MC_BLOCK - 1, 1),
        (verify._MC_BLOCK + 1, 1),
        (1 << 16, 3),
        (verify._MC_BLOCK, 1),
        (10**5, 2),
    ],
)
def test_chunk_draws_match_the_reference_across_stretches(shape):
    # one call draws one stretch of counters, of any length, in row-major
    # order: up to a block from the cached counters, past it from fresh ones
    u = verify._draws(77, 2 * 2**40 + 1, shape)
    assert u.shape == shape and u.flags.writeable
    assert u.ravel().tolist() == mc_reference.stream_draws(77, 2 * 2**40 + 1, u.size)


def test_block_counters_are_cached_and_read_only():
    counters = verify._block_counters()
    assert counters is verify._block_counters()
    assert counters.shape == (verify._MC_BLOCK,) and not counters.flags.writeable
    with pytest.raises(ValueError):
        counters[0] = 1


def test_writing_into_draws_does_not_change_later_draws():
    # the draws are a new array: mc_integral's Clenshaw pass overwrites them,
    # and a caller may too, without touching the cached counters
    for shape in ((verify._MC_BLOCK,), (100, 3)):
        verify._draws(5, 1, shape).fill(0.25)
        verify.mc_integral(legendre_coeffs(3), 2, 1, 10**4, 5)
        u = verify._draws(5, 1, shape)
        assert u.ravel().tolist() == mc_reference.stream_draws(5, 1, u.size)


def test_mc_integral_in_four_threads_matches_one_thread():
    cases = [(legendre_coeffs(n), r, v, 30001, 11 * n + r) for n, r, v in ((2, 2, 0), (5, 3, 2))]
    expected = [verify.mc_integral(*args) for args in cases]
    # the threads also race to build the cached counters
    verify._block_counters.cache_clear()
    results: dict[int, list] = {}

    def run(i):
        results[i] = [verify.mc_integral(*args) for args in cases]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: expected for i in range(4)}


def _unxorshift(y: int, shift: int) -> int:
    z = y
    for _ in range(64 // shift):
        z = y ^ (z >> shift)
    return z


def _splitmix64_state(out: int) -> int:
    """The state that SplitMix64's mix takes to `out`: its steps undone in reverse."""
    z = _unxorshift(out, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = _unxorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return _unxorshift(z, 30)


def test_extreme_outputs_map_inside_the_open_interval():
    # the outputs 0 and 2**64 - 1 become the end cells' midpoints, on which
    # the integrand stays finite: a product of 20 smallest draws does not
    # underflow to 0, and one of up to 1000 largest draws stays below 1
    ends = []
    for out in (0, 2**64 - 1):
        x0 = (_splitmix64_state(out) - 0x9E3779B97F4A7C15) % 2**64
        assert mc_reference.splitmix64(x0, 1) == out
        ends.append(float(verify._draws(x0, 1, (1,))[0]))
    lo, hi = ends
    assert (lo, hi) == (2.0**-53, 1 - 2.0**-53)
    assert verify._row_products(np.full((1, 20), lo))[0] > 0
    # row k - 2 holds k copies of hi, padded with exact 1.0 factors
    rows = np.where(np.tri(999, 1000, 1, dtype=bool), hi, 1.0)
    assert (verify._row_products(rows) < 1).all()


def test_mc_integral_with_underflowing_products_is_non_finite():
    # at r = 800 nearly every product of draws underflows to 0, where the
    # log power is infinite: the estimate reports it, without an error
    est = verify.mc_integral(legendre_coeffs(0), 800, 1, 10**4, 1)
    assert not math.isfinite(est.mean)


def _shifted_chebyshev_matches_reference(poly: Poly) -> None:
    got = verify._shifted_chebyshev(poly)
    assert got.tobytes() == ref.shifted_chebyshev(poly).tobytes(), poly.coeffs


def test_shifted_chebyshev_matches_reference_on_legendre_and_edge_polys():
    for n in range(121):
        _shifted_chebyshev_matches_reference(legendre_coeffs(n))
    _shifted_chebyshev_matches_reference(Poly([Fraction(-7, 3)]))
    # c_0 and c_1 round past the float64 range, to +-inf
    for poly in (Poly([1, 10**400]), Poly([-3, 10**309]), Poly([1, -(10**400)])):
        _shifted_chebyshev_matches_reference(poly)
    assert np.isposinf(verify._shifted_chebyshev(Poly([1, 10**400]))).all()
    assert np.isneginf(verify._shifted_chebyshev(Poly([1, -(10**400)]))).all()


@settings(max_examples=60)
@given(coeffs=st.one_of(_dense, _sparse, _rational).filter(any))
def test_shifted_chebyshev_matches_reference_on_random_polys(coeffs):
    _shifted_chebyshev_matches_reference(Poly(coeffs))


def _clenshaw_matches_reference(poly: Poly, seed: int) -> None:
    cheb = verify._shifted_chebyshev(poly)
    x = verify._draws(seed, 1, (4096,))
    expected = mc_reference.clenshaw(cheb, x)
    assert np.array_equal(verify._clenshaw(cheb, x.copy()), expected), poly.coeffs


def test_clenshaw_matches_reference_on_p0_to_p8_and_a_constant():
    # len(c) = 1 (P_0 and the constant 7), 2, 3 and up to 9
    for n in range(9):
        _clenshaw_matches_reference(legendre_coeffs(n), n)
    _clenshaw_matches_reference(Poly([7]), 9)


@settings(max_examples=40)
@given(coeffs=st.one_of(_dense, _sparse).filter(any), seed=st.integers(0, 2**64 - 1))
def test_clenshaw_matches_reference_on_random_integer_polys(coeffs, seed):
    _clenshaw_matches_reference(Poly(coeffs), seed)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 30])
def test_mc_integral_matches_reference_on_legendre_grid(n):
    poly = legendre_coeffs(n)
    for r in range(2, 7):
        for v in range(5):
            args = (poly, r, v, 10**4 + 1, n + r)
            assert verify.mc_integral(*args) == mc_reference.mc_integral(*args), (r, v)


@pytest.mark.parametrize("samples", [10**4 + 1, 70001, 131073])
def test_mc_integral_matches_reference_off_the_block_and_chunk_sizes(samples):
    # the last block comes up short
    for n, r, v in ((2, 2, 0), (1, 2, 1), (2, 3, 2), (30, 5, 4)):
        args = (legendre_coeffs(n), r, v, samples, 3)
        assert verify.mc_integral(*args) == mc_reference.mc_integral(*args), (n, r, v)


@settings(max_examples=40)
@given(
    coeffs=st.one_of(_dense, _sparse).filter(any),
    r=st.integers(2, 5),
    v=st.integers(0, 4),
    seed=st.integers(0, 2**64 - 1),
)
def test_mc_integral_matches_reference_on_random_integer_polys(coeffs, r, v, seed):
    args = (Poly(coeffs), r, v, 10**4 + 1, seed)
    assert verify.mc_integral(*args) == mc_reference.mc_integral(*args)


# -- the rationals of a scan row, normalized once ------------------------------


def test_legendre_coefficients_match_the_closed_form():
    for n in range(301):
        assert legendre_coeffs(n) == Poly(ref.legendre_closed_form(n)), n


_RATIONALS = st.builds(
    Fraction,
    st.one_of(st.integers(-(10**6), 10**6), st.integers(-(10**600), 10**600)),
    st.one_of(st.integers(1, 10**6), st.integers(1, 10**600)),
)


@settings(max_examples=300)
@given(
    zeta=st.dictionaries(st.integers(2, 14), _RATIONALS, max_size=6),
    constant=st.one_of(st.just(Fraction(0)), _RATIONALS),
)
@example(zeta={}, constant=Fraction(0))
@example(zeta={3: Fraction(10**600)}, constant=Fraction(0))
@example(zeta={2: Fraction(1, 10**600), 5: Fraction(-1, 10**599)}, constant=Fraction(0))
@example(zeta={4: Fraction(10**600 - 1, 7)}, constant=Fraction(-(10**600), 3))
def test_the_integer_magnitude_equals_the_fraction_sum(zeta, constant):
    combo = ZetaCombination.make(zeta, constant)
    magnitude = verify._combination_magnitude(combo)
    assert magnitude == ref.combination_magnitude(combo)
    assert verify._magnitude_digits(magnitude) == verify._magnitude_digits(ref.combination_magnitude(combo))
