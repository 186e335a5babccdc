import random
from fractions import Fraction

import mpmath
import pytest

from zetalab import (
    DirectSumError,
    ZetaCombination,
    build_summand,
    crosscheck,
    decompose,
    direct_sum_value,
    eval_combination,
    legendre_coeffs,
    mc_integral,
    shifted_series_value,
    zeta_value,
)
from zetalab.verify import _mpf_tier_sum, _min_k_for_tail
from zetalab.moments import tail_bound


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

    monkeypatch.setattr(verify, "_zeta_cache", {})
    monkeypatch.setattr(verify, "_zeta_rational", lambda j, digits: (Fraction(6, 5), Fraction(1, 10)))
    with pytest.raises(RuntimeError, match="exceeds"):
        zeta_value(3, 20)


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


# -- direct summation -------------------------------------------------------------


def test_direct_sum_p0_r3_v2():
    d = direct_sum_value(legendre_coeffs(0), 3, 2, Fraction(1, 10**12))
    e = eval_combination(ZetaCombination.make({5: 12}), 30)
    with mpmath.workdps(35):
        assert abs(d.value - e.value) <= d.error_bound + e.error_bound
        assert d.error_bound <= mpmath.mpf("1e-12")


def test_direct_sum_slow_decay_float64_tier():
    # needs ~2e8 terms; exercised through the certified float64 tier
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


def test_direct_sum_unreachable_target():
    with pytest.raises(DirectSumError, match="K"):
        direct_sum_value(legendre_coeffs(0), 2, 0, Fraction(1, 10**30))


def test_direct_sum_tiers_agree():
    # force the same case through both tiers by shrinking the mpf cap
    poly = legendre_coeffs(1)
    a = direct_sum_value(poly, 2, 0, Fraction(1, 10**4))
    b = direct_sum_value(poly, 2, 0, Fraction(1, 10**4), mpf_cap=10)
    with mpmath.workdps(30):
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_mpf_tier_rounding_budget_holds():
    rng = random.Random(41)
    with mpmath.workdps(60):
        for _ in range(6):
            poly = None
            from zetalab import Poly

            while poly is None or poly.is_zero:
                poly = Poly([rng.randint(-4, 4) for _ in range(3)])
            spec = build_summand(poly, 2, rng.randint(0, 2))
            K = 500
            tau = Fraction(1, 10**10)
            total, bound = _mpf_tier_sum(spec, K, tau)
            from zetalab import series_partial_sum

            exact = series_partial_sum(spec, K)
            diff = abs(total - mpmath.mpf(exact.numerator) / exact.denominator)
            assert diff <= mpmath.mpf(bound.numerator) / bound.denominator + mpmath.mpf(
                "1e-45"
            )


def test_min_k_solver_consistency():
    spec = build_summand(legendre_coeffs(2), 2, 1)
    tau = Fraction(1, 10**7)
    k = _min_k_for_tail(spec, tau, 2**31)
    assert tail_bound(spec, k) <= tau
    assert k == 2 or tail_bound(spec, k - 1) > tau


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


def test_mc_chunking_invariant():
    # totals must not depend on how samples split across chunks beyond the
    # fixed boundaries: 10**5 spans two chunks, and prefixes reuse the
    # leading substreams, so the first-chunk contribution is shared
    a = mc_integral(legendre_coeffs(0), 2, 0, 0.0, 10**4, seed=3)
    b = mc_integral(legendre_coeffs(0), 2, 0, 0.0, 10**4, seed=3)
    assert a == b


def test_mc_stderr_definition():
    est = mc_integral(legendre_coeffs(0), 2, 0, 0.0, 10**4, seed=1)
    assert est.samples == 10**4
    assert est.stderr > 0
    assert est.rejected >= 0


def test_mc_z_shift():
    # z = 1 drops the k = 0 term: expect zeta(2) - 1
    est = mc_integral(legendre_coeffs(0), 2, 0, 1.0, 10**5, seed=42)
    with mpmath.workdps(20):
        assert abs(est.mean - float(mpmath.zeta(2) - 1)) <= 4 * est.stderr


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_integral(legendre_coeffs(0), 1, 0, 0.0, 10**5, seed=1)
    with pytest.raises(ValueError):
        mc_integral(legendre_coeffs(0), 2, 0, -0.5, 10**5, seed=1)
    with pytest.raises(ValueError):
        mc_integral(legendre_coeffs(0), 2, 0, 0.0, 999, seed=1)


# -- crosschecks ------------------------------------------------------------------


@pytest.mark.parametrize("n,r,v", [(0, 3, 2), (1, 2, 1), (2, 3, 0)])
def test_crosscheck_cases_pass(n, r, v):
    rep = crosscheck(n, r, v, precision=30, samples=10**5, seed=42)
    assert rep.exact_vs_direct_ok
    assert rep.exact_vs_mc_ok
    assert rep.passed


def test_crosscheck_report_payload():
    rep = crosscheck(0, 2, 1, precision=20, samples=10**4, seed=5)
    obj = rep.to_json_dict()
    assert obj["mc"]["seed"] == 5
    assert obj["mc"]["samples"] == 10**4
    assert obj["passed"] is True
    import json

    json.dumps(obj)


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
