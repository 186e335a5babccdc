import math
import random
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraction_reference import build_summand, series_partial_sum, tail_bound
from zetalab import (
    CrosscheckReport,
    HighPrecisionValue,
    MCEstimate,
    Poly,
    ZetaCombination,
    crosscheck,
    decompose,
    direct_sum_value,
    eval_combination,
    legendre_coeffs,
    mc_integral,
    shifted_series_value,
    zeta_value,
)
from zetalab import verify
from zetalab.verify import _clenshaw, _direct_sum, _euler_maclaurin_sum, _shifted_chebyshev


# -- zeta values ---------------------------------------------------------------


def test_zeta_frozen_decimals():
    frozen = {
        2: "1.64493406684823",
        3: "1.20205690315959",
        5: "1.03692775514337",
    }
    with mpmath.workdps(30):
        for j, text in frozen.items():
            hv = zeta_value(j, 15)
            assert abs(hv.value - mpmath.mpf(text)) < mpmath.mpf("2e-14")
            assert hv.error_bound <= mpmath.mpf("1e-15")


def test_zeta_bound_contains_reference():
    # reference: mpmath's independent zeta implementation at higher dps
    with mpmath.workdps(60):
        for j in (2, 3, 4, 5, 7, 11, 20):
            hv = zeta_value(j, 40)
            assert abs(hv.value - mpmath.zeta(j)) <= hv.error_bound


def test_zeta2_matches_pi_squared_over_6():
    with mpmath.workdps(45):
        hv = zeta_value(2, 35)
        assert abs(hv.value - mpmath.pi**2 / 6) <= hv.error_bound + mpmath.mpf("1e-40")


def test_zeta_brute_force_tail_oracle():
    # independent low-precision check: direct sum plus integral-comparison
    # tail at 12 digits
    with mpmath.workdps(25):
        for j in (2, 3, 5):
            n = 4000
            partial = mpmath.fsum(mpmath.mpf(1) / k**j for k in range(1, n + 1))
            tail_hi = mpmath.mpf(1) / ((j - 1) * (n) ** (j - 1))
            hv = zeta_value(j, 15)
            assert partial <= hv.value <= partial + tail_hi + hv.error_bound


def test_zeta_validation():
    with pytest.raises(ValueError):
        zeta_value(1, 20)
    with pytest.raises(ValueError):
        zeta_value(3, 5)


def test_zeta_value_raises_when_the_bound_misses_the_precision(monkeypatch):
    # the certified claim must hold under python -O too: a loose bound is a
    # raised error, not an assert
    from zetalab import verify

    zeta_value.cache_clear()
    monkeypatch.setattr(verify, "_zeta_rational", lambda j, digits: (Fraction(6, 5), Fraction(1, 10)))
    with pytest.raises(RuntimeError, match="exceeds"):
        zeta_value(3, 20)


def test_zeta_values_computed_in_threads_keep_their_enclosures():
    # four threads ask for zeta(2), zeta(3), zeta(5) at precisions 100..139
    # in rotated orders, with a short switch interval so that they interleave
    # inside each computation; every result, memoized or fresh, must still
    # enclose zeta(j) computed by mpmath at 160 digits
    js = (2, 3, 5)
    with mpmath.workdps(160):
        reference = {j: verify._mpf_to_fraction(mpmath.zeta(j)) for j in js}
    slack = Fraction(1, 10**155)  # far above the reference's own rounding
    misses = []

    def work(t):
        for p in range(100, 140):
            for j in js[t % 3 :] + js[: t % 3]:
                hv = zeta_value(j, p)
                gap = abs(verify._mpf_to_fraction(hv.value) - reference[j])
                if gap > verify._mpf_to_fraction(hv.error_bound) + slack:
                    misses.append((j, p))

    zeta_value.cache_clear()
    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert misses == []


# -- combination evaluation ------------------------------------------------------


def test_eval_combination_examples():
    with mpmath.workdps(35):
        v = eval_combination(ZetaCombination.make({5: 12}), 25)
        assert abs(v.value - mpmath.mpf("12.443133061720439115976385837")) < mpmath.mpf("1e-24")
        c = eval_combination(ZetaCombination.make({}, Fraction(7, 2)), 25)
        assert c.value == mpmath.mpf("3.5")
        assert c.error_bound < mpmath.mpf("1e-24")
        d = eval_combination(ZetaCombination.make({2: 1, 3: -1}), 25)
        assert abs(d.value - mpmath.mpf("0.4428771636886321511")) < mpmath.mpf("1e-18")


def test_eval_combination_absorbs_coefficient_magnitude():
    # a combination with ~1e30 coefficients and a tiny value must still be
    # resolved to the requested absolute precision
    combo = decompose(legendre_coeffs(20), 2, 1)
    v = eval_combination(combo, 40)
    with mpmath.workdps(60):
        assert v.error_bound < mpmath.mpf("1e-40")
        assert v.value != 0
        assert abs(v.value) < mpmath.mpf("1e-30")


def test_eval_combination_in_threads_matches_one_thread():
    # two threads at precision 15 and two at 200, interleaved by a short
    # switch interval, evaluate 7 zeta(3) - 2 zeta(5) + 1; every value and
    # bound must be the one a single thread computes, bit for bit
    combo = ZetaCombination.make({3: 7, 5: -2}, 1)
    precisions = (15, 200, 15, 200)
    expected = {}
    for p in precisions:
        hv = eval_combination(combo, p)
        expected[p] = (hv.value._mpf_, hv.error_bound._mpf_)
    differ = [0] * len(precisions)

    def work(t):
        for _ in range(300):
            hv = eval_combination(combo, precisions[t])
            if (hv.value._mpf_, hv.error_bound._mpf_) != expected[precisions[t]]:
                differ[t] += 1

    threads = [threading.Thread(target=work, args=(t,)) for t in range(len(precisions))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert differ == [0] * len(precisions)


# -- direct summation -------------------------------------------------------------


def test_direct_sum_p0_r3_v2():
    d = direct_sum_value(legendre_coeffs(0), 3, 2, Fraction(1, 10**12))
    e = eval_combination(ZetaCombination.make({5: 12}), 30)
    with mpmath.workdps(35):
        assert abs(d.value - e.value) <= d.error_bound + e.error_bound
        assert d.error_bound <= mpmath.mpf("1e-12")


def test_direct_sum_slow_decay_to_1e_8():
    # 1/k**2 summed term by term would need ~1e8 terms for 1e-8; the exact
    # head plus the Euler-Maclaurin tail reaches it from a few dozen
    d = direct_sum_value(legendre_coeffs(0), 2, 0, Fraction(1, 10**8))
    with mpmath.workdps(30):
        ref = mpmath.zeta(2)
        assert abs(d.value - ref) <= d.error_bound
        assert d.error_bound <= mpmath.mpf("1e-8")


def test_direct_sum_agrees_with_decompose_p1_r2_v1():
    d = direct_sum_value(legendre_coeffs(1), 2, 1, Fraction(1, 10**10))
    e = eval_combination(decompose(legendre_coeffs(1), 2, 1), 30)
    with mpmath.workdps(35):
        assert abs(d.value - e.value) <= d.error_bound + e.error_bound


def test_direct_sum_sign_convention():
    # v odd: sum of G(k) is negative, reported value is positive
    d = direct_sum_value(legendre_coeffs(0), 2, 1, Fraction(1, 10**10))
    assert d.value > 0


def test_direct_sum_encloses_zeta2_to_1e_40():
    # slow 1/k**2 decay at a target no truncated sum of that series reaches
    d = direct_sum_value(legendre_coeffs(0), 2, 0, Fraction(1, 10**40))
    with mpmath.workdps(60):
        assert abs(d.value - mpmath.zeta(2)) <= d.error_bound
        assert d.error_bound <= mpmath.mpf("1e-40")


def test_direct_sum_tiers_agree():
    # a coarse and a fine target sum the same case at different expansion
    # orders L and Euler-Maclaurin orders p; the two enclosures must overlap
    poly = legendre_coeffs(1)
    a = direct_sum_value(poly, 2, 0, Fraction(1, 10**4))
    b = direct_sum_value(poly, 2, 0, Fraction(1, 10**30))
    with mpmath.workdps(40):
        assert b.error_bound < a.error_bound
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def _exact(x) -> Fraction:
    # man_exp drops the sign of an mpf
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * man * Fraction(2) ** exp


def test_mpf_tier_rounding_budget_holds():
    # the exact sum is rounded to mpf once; error_bound must cover that
    # rounding on top of the exact truncation bound, checked exactly
    rng = random.Random(41)
    tau = Fraction(1, 10**10)
    for _ in range(6):
        poly = None
        while poly is None or poly.is_zero:
            poly = Poly([rng.randint(-4, 4) for _ in range(3)])
        spec = build_summand(poly, 2, rng.randint(0, 2))
        total, bound, _ = _euler_maclaurin_sum(spec.poly, spec.r, spec.v, tau)
        d, _ = _direct_sum(spec.poly, spec.r, spec.v, tau)
        exact = total * (-1) ** spec.v
        assert bound <= tau / 2
        assert abs(_exact(d.value) - exact) <= _exact(d.error_bound) - bound


def test_direct_sum_encloses_the_integral_comparison_bracket():
    # the exact partial sum plus the independent integral-comparison tail
    # bound brackets the series; the Euler-Maclaurin enclosure must meet it
    rng = random.Random(41)
    cases = [(legendre_coeffs(1), 2, 0)]
    while len(cases) < 7:
        poly = Poly([rng.randint(-4, 4) for _ in range(3)])
        if not poly.is_zero:
            cases.append((poly, 2, rng.randint(0, 2)))
    with mpmath.workdps(60):
        for poly, r, v in cases:
            spec = build_summand(poly, r, v)
            K = 2000
            head = series_partial_sum(spec, K) * (-1) ** v
            slack = tail_bound(spec, K)
            d = direct_sum_value(poly, r, v, Fraction(1, 10**30))
            gap = abs(d.value - mpmath.mpf(head.numerator) / head.denominator)
            assert gap <= d.error_bound + mpmath.mpf(slack.numerator) / slack.denominator


def test_direct_sum_target_types():
    # Fraction(target) reads every type callers pass; the bound meets each
    e = eval_combination(decompose(legendre_coeffs(1), 2, 1), 30)
    for target in (1, "1e-6", 1e-9, Fraction(1, 10**12)):
        d = direct_sum_value(legendre_coeffs(1), 2, 1, target)
        t = Fraction(target)
        with mpmath.workdps(40):
            assert d.error_bound <= mpmath.mpf(t.numerator) / t.denominator
            assert abs(d.value - e.value) <= d.error_bound + e.error_bound
    with pytest.raises(ValueError):
        direct_sum_value(legendre_coeffs(1), 2, 1, 0)


@settings(max_examples=40)
@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any),
    r=st.integers(2, 5),
    v=st.integers(0, 4),
)
def test_direct_sum_encloses_exact_value_on_random_integer_polys(coeffs, r, v):
    poly = Poly(coeffs)
    e = eval_combination(decompose(poly, r, v), 30)
    d = direct_sum_value(poly, r, v, Fraction(1, 10**30))
    with mpmath.workdps(60):
        assert d.error_bound <= mpmath.mpf("1e-30")
        assert abs(d.value - e.value) <= d.error_bound + e.error_bound


# -- Monte Carlo ------------------------------------------------------------------


def test_mc_known_values_4_sigma():
    cases = [
        (0, 2, 0, lambda: mpmath.zeta(2)),
        (0, 3, 0, lambda: mpmath.zeta(3)),
        (0, 2, 1, lambda: 2 * mpmath.zeta(3)),
        (0, 3, 2, lambda: 12 * mpmath.zeta(5)),
    ]
    with mpmath.workdps(20):
        for n, r, v, truth in cases:
            est = mc_integral(legendre_coeffs(n), r, v, 0.0, 10**5, seed=42)
            assert abs(est.mean - float(truth())) <= 4 * est.stderr


def test_mc_reproducible_bit_for_bit():
    a = mc_integral(legendre_coeffs(1), 2, 1, 0.0, 10**5, seed=7)
    b = mc_integral(legendre_coeffs(1), 2, 1, 0.0, 10**5, seed=7)
    assert a == b
    c = mc_integral(legendre_coeffs(1), 2, 1, 0.0, 10**5, seed=8)
    assert c.mean != a.mean


def test_mc_chunking_invariant(monkeypatch):
    # the counter layout alone fixes every draw: a 10**4-sample run draws
    # the first 10**4 rows of a 10**5-sample run, which spans two chunks
    real = verify._draws
    calls = []

    def recording(x0, first, shape):
        u = real(x0, first, shape)
        calls.append((first, u.copy()))  # mc_integral overwrites u
        return u

    monkeypatch.setattr(verify, "_draws", recording)
    runs = []
    for samples in (10**4, 10**5):
        calls.clear()
        mc_integral(legendre_coeffs(0), 2, 0, 0.0, samples, seed=3)
        runs.append(list(calls))
    short, long = runs
    # row lo of chunk c is counter c * 2**40 + 1 + lo * r, with r = 2
    block = verify._MC_BLOCK
    chunk0 = [1 + 2 * lo for lo in range(0, verify._MC_CHUNK, block)]
    chunk1 = [2**40 + 1 + 2 * lo for lo in range(0, 10**5 - verify._MC_CHUNK, block)]
    assert [first for first, _ in long] == chunk0 + chunk1
    short_rows = np.concatenate([u for _, u in short])
    long_rows = np.concatenate([u for _, u in long])
    assert short_rows.shape == (10**4, 2)
    assert np.array_equal(short_rows, long_rows[: 10**4])


def test_mc_stderr_definition():
    est = mc_integral(legendre_coeffs(0), 2, 0, 0.0, 10**4, seed=1)
    assert est.samples == 10**4
    assert est.stderr > 0
    assert est.rejected == 0


def test_mc_overflowed_estimate_reports_a_non_finite_stderr():
    # R = 1 + 1e200 x overflows float64: the mean is inf and the variance
    # NaN, which must not read as a zero stderr; the report says so, so
    # numpy prints no overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_integral(Poly([1, 10**200]), 2, 0, samples=10**4)
    assert math.isinf(est.mean)
    assert not math.isfinite(est.stderr)


def test_mc_z_shift():
    # z = 1 drops the k = 0 term: expect zeta(2) - 1
    est = mc_integral(legendre_coeffs(0), 2, 0, 1.0, 10**5, seed=42)
    with mpmath.workdps(20):
        assert abs(est.mean - float(mpmath.zeta(2) - 1)) <= 4 * est.stderr


def test_mc_validation(monkeypatch):
    with pytest.raises(ValueError):
        mc_integral(legendre_coeffs(0), 1, 0, 0.0, 10**5, seed=1)
    with pytest.raises(ValueError):
        mc_integral(legendre_coeffs(0), 2, 0, -0.5, 10**5, seed=1)
    with pytest.raises(ValueError):
        mc_integral(legendre_coeffs(0), 2, 0, 0.0, 999, seed=1)
    # past 2**40 samples the chunk counters pass 2**64; refused before any work
    def no_work(poly):
        raise AssertionError("mc_integral started work on too many samples")

    monkeypatch.setattr(verify, "_shifted_chebyshev", no_work)
    with pytest.raises(ValueError):
        mc_integral(legendre_coeffs(0), 2, 0, 0.0, 2**40 + 1, seed=1)


def test_shifted_chebyshev_clenshaw_matches_exact_values():
    # sum |c_k| is 1 for P_n, whose monomial coefficients reach 1.6e21 at
    # n = 30 and 7.6e43 at n = 60 and cancel
    rng = random.Random(5)
    polys = [
        legendre_coeffs(30), legendre_coeffs(60), Poly([Fraction(7, 3), -5, Fraction(1, 6), 2])
    ]
    # dyadic points, so that float(x) is x exactly
    xs = [Fraction(rng.randint(0, 2**20), 2**20) for _ in range(50)] + [Fraction(0), Fraction(1)]
    for poly in polys:
        cheb = _shifted_chebyshev(poly)
        got = _clenshaw(cheb, np.array([float(x) for x in xs]))
        scale = float(sum(abs(c) for c in cheb))
        for x, g in zip(xs, got):
            exact = float(poly(x))
            assert abs(g - exact) <= 1e-13 * scale, (poly.degree, x)


@pytest.mark.parametrize("n", [30, 60])
def test_mc_high_degree_legendre_mean_within_4_stderr_of_zero(n):
    # the true value is below 1e-40, far inside the sampling error
    est = mc_integral(legendre_coeffs(n), 2, 1, 0.0, 10**5, seed=42)
    assert est.stderr < 1e-3
    assert abs(est.mean) <= 4 * est.stderr


# -- crosschecks ------------------------------------------------------------------


@pytest.mark.parametrize("n,r,v", [(0, 3, 2), (1, 2, 1), (2, 3, 0)])
def test_crosscheck_cases_pass(n, r, v):
    rep = crosscheck(legendre_coeffs(n), r, v, precision=30, samples=10**5, seed=42)
    assert rep.exact_vs_direct_ok
    assert rep.exact_vs_mc_ok
    assert rep.passed


def test_crosscheck_report_payload():
    rep = crosscheck(legendre_coeffs(0), 2, 1, precision=20, samples=10**4, seed=5)
    obj = rep.to_json_dict()
    assert obj["mc"]["seed"] == 5
    assert obj["mc"]["samples"] == 10**4
    assert obj["passed"] is True
    import json

    json.dumps(obj)


def _report_with_bounds(exact_bound, direct_bound) -> CrosscheckReport:
    def hv(bound):
        return HighPrecisionValue(value=mpmath.mpf(0), error_bound=bound, dps=30)

    mc = MCEstimate(mean=0.0, stderr=1.0, samples=10**4, seed=0, rejected=0)
    return CrosscheckReport(2, 0, 30, hv(exact_bound), hv(direct_bound), 1, mc, True, True)


def test_verified_digits_are_the_digits_the_bounds_certify():
    # bounds that sum to 1e-30 (1 + 1e-20) certify 29 digits, not 30: the
    # count must not round the sum to a power of ten
    with mpmath.workdps(80):
        cases = [
            (mpmath.mpf(10) ** -30 * (1 + mpmath.mpf(10) ** -20), 29),
            (mpmath.mpf(10) ** -30 * (1 - mpmath.mpf(10) ** -20), 30),
            (mpmath.mpf(2) ** -100, 30),
            (mpmath.mpf(1), 0),
            (mpmath.mpf(20), -2),
        ]
        for total, digits in cases:
            rep = _report_with_bounds(total / 2, total / 2)
            assert rep.verified_digits == digits, (total, digits)


def test_crosscheck_direct_enclosure_touching_passes_one_ulp_short_fails(monkeypatch):
    # the direct radius exactly closes the gap |exact - direct| left by the
    # exact radius; one ulp less must fail, however small that ulp
    poly, r, v = legendre_coeffs(1), 2, 1
    exact = eval_combination(decompose(poly, r, v), 30)
    with mpmath.workprec(400):
        gap = mpmath.mpf(2) ** -110
        direct_value = exact.value + gap
        touching = gap - exact.error_bound
        man, exp = touching.man_exp
        short = mpmath.mpf((man - 1, exp))
    assert _exact(direct_value) - _exact(exact.value) == _exact(gap)
    assert _exact(touching) + _exact(exact.error_bound) == _exact(gap)
    for radius, ok in ((touching, True), (short, False)):
        direct = HighPrecisionValue(value=direct_value, error_bound=radius, dps=40)
        monkeypatch.setattr(verify, "_direct_sum", lambda *args, d=direct: (d, 7))
        rep = crosscheck(poly, r, v, precision=30, samples=10**4, seed=1)
        assert rep.exact_vs_direct_ok is ok


def test_crosscheck_reports_an_overflowed_monte_carlo_estimate_as_unconfirmed(monkeypatch):
    # with R = 1 + 1e200 x the sampled integrand overflows float64 and the
    # mean is inf; a non-finite estimate confirms nothing, and the report
    # still comes back
    inf = float("inf")
    for mean, stderr in ((inf, 0.0), (0.0, inf), (float("nan"), 1.0)):
        est = MCEstimate(mean=mean, stderr=stderr, samples=10**4, seed=1, rejected=0)
        monkeypatch.setattr(verify, "mc_integral", lambda *args, est=est: est)
        rep = crosscheck(legendre_coeffs(1), 2, 1, precision=30, samples=10**4, seed=1)
        assert rep.exact_vs_direct_ok
        assert not rep.exact_vs_mc_ok


def test_shifted_series_value_encloses_the_shifted_zeta_series():
    # sum_{k>=0} 1/(k+z+1)**2 = zeta(2) - H_z^(2), certified to the precision asked
    with mpmath.workdps(80):
        for z in (0, 1, 5):
            sv = shifted_series_value(legendre_coeffs(0), 2, z, 40)
            truth = mpmath.zeta(2) - sum(mpmath.mpf(1) / k**2 for k in range(1, z + 1))
            assert sv.error_bound <= mpmath.mpf(10) ** -40
            assert abs(sv.value - truth) <= sv.error_bound


def test_generating_function_shift_invariant():
    # integer z keeps the shifted series exact; compare with the sampled
    # integrand carrying the (x1...xr)**z weight
    for n in (0, 1):
        for z in (1, 2):
            sv = shifted_series_value(legendre_coeffs(n), 2, z, 25)
            est = mc_integral(legendre_coeffs(n), 2, 0, float(z), 10**6, seed=11)
            assert abs(float(sv.value) - est.mean) <= 4 * est.stderr


def test_shifted_series_validation():
    with pytest.raises(ValueError):
        shifted_series_value(legendre_coeffs(0), 2, -1, 20)
