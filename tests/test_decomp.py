import json
import math
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from fraction_reference import build_summand, recombine, series_partial_sum, tail_bound
from zetalab import (
    Poly,
    ZetaCombination,
    apery_report,
    decompose,
    decomposition_report,
    eval_combination,
    lcm_upto,
    legendre_coeffs,
    rationality_criterion,
)
from zetalab.decomp import _principal_parts


def test_decompose_n0_identities():
    p0 = legendre_coeffs(0)
    assert decompose(p0, 2, 0) == ZetaCombination.make({2: 1})
    assert decompose(p0, 3, 0) == ZetaCombination.make({3: 1})
    assert decompose(p0, 2, 1) == ZetaCombination.make({3: 2})
    assert decompose(p0, 3, 2) == ZetaCombination.make({5: 12})


def test_decompose_p1_r2_v0_hand_telescoped():
    # M_1^2 = (s+1)^-2 + 4(s+2)^-2 - 4(s+1)^-1 + 4(s+2)^-1; summing over
    # k >= 0 gives zeta(2) + 4(zeta(2)-1) - 4 (the order-1 pair telescopes
    # to 1), i.e. 5 zeta(2) - 8
    assert decompose(legendre_coeffs(1), 2, 0) == ZetaCombination.make({2: 5}, -8)


def test_decompose_p1_r3_v2_hand_value():
    # hand partial fractions of [1/(s+1) - 2/(s+2)]^3, differentiated twice
    # and summed termwise: -84 zeta(5) - 108 zeta(4) + 204
    combo = decompose(legendre_coeffs(1), 3, 2)
    assert combo == ZetaCombination.make({4: -108, 5: -84}, 204)


def test_principal_parts_hand_examples():
    # M = 1/(s+1): G = d^2/ds^2 (s+1)^-3 = 12 (s+1)^-5
    assert _principal_parts(legendre_coeffs(0), 3, 2) == {(1, 5): 12}
    assert decompose(legendre_coeffs(0), 3, 2) == ZetaCombination.make({5: 12})
    # M = 1/(s+1) - 1/(s+2) = 1/((s+1)(s+2)), so M^2 = (s+1)^-2 + (s+2)^-2
    # - 2/(s+1) + 2/(s+2); summed: zeta(2) + (zeta(2) - 1) - 2 H_1
    one_minus_x = Poly([1, -1])
    assert _principal_parts(one_minus_x, 2, 0) == {
        (1, 2): 1, (1, 1): -2, (2, 2): 1, (2, 1): 2,
    }
    assert decompose(one_minus_x, 2, 0) == ZetaCombination.make({2: 2}, -3)
    # its derivative: -2(s+1)^-3 + 2(s+1)^-2 - 2(s+2)^-3 - 2(s+2)^-2; minus
    # the sum is 2 zeta(3) + 2 (zeta(3) - 1) - 2 zeta(2) + 2 (zeta(2) - 1)
    assert _principal_parts(one_minus_x, 2, 1) == {
        (1, 3): -2, (1, 2): 2, (2, 3): -2, (2, 2): -2,
    }
    assert decompose(one_minus_x, 2, 1) == ZetaCombination.make({3: 4}, -4)


def assert_parts_rebuild_summand(poly, r, v):
    # a proper rational function is fixed by its principal parts, so this
    # pins every coefficient against the independent build_summand route:
    # G = N_v / Q**(r+v), and N_v == sum c Q**(r+v) / (s+m)**j
    parts = _principal_parts(poly, r, v)
    assert all(c != 0 for c in parts.values())
    assert recombine(parts, poly, r + v) == build_summand(poly, r, v).summand[0]
    return parts


def test_principal_parts_rebuild_summand_on_legendre_grid():
    for n in range(7):
        for r in (2, 3, 4):
            for v in range(4):
                assert_parts_rebuild_summand(legendre_coeffs(n), r, v)


def test_principal_parts_rebuild_summand_sparse_and_non_integer():
    polys = [
        Poly([0, 1]),  # x: a single pole at s = -2
        Poly([0, 0, 5, 0, 0, -3]),
        Poly([0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, -1]),
        Poly([Fraction(1, 2), 0, Fraction(-2, 3)]),
        Poly([Fraction(7, 3), Fraction(-5, 4), Fraction(1, 6), 2]),
    ]
    for poly in polys:
        for r, v in ((2, 0), (2, 3), (3, 1), (4, 2), (5, 4)):
            assert_parts_rebuild_summand(poly, r, v)


@settings(max_examples=40)
@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=7).filter(any),
    r=st.integers(2, 5),
    v=st.integers(0, 4),
)
def test_principal_parts_property_on_random_integer_polys(coeffs, r, v):
    poly = Poly(coeffs)
    parts = assert_parts_rebuild_summand(poly, r, v)
    # G decays like s**-2 at least, so the order-1 residues cancel
    assert sum(c for (_, j), c in parts.items() if j == 1) == 0


def test_decompose_input_errors_match_build_summand():
    # decompose no longer builds the summand but rejects the same inputs
    # with the same messages, and still takes a plain coefficient list
    for poly, r, v in ((legendre_coeffs(0), 1, 0), (legendre_coeffs(0), 2, -1), ([0, 0], 2, 0)):
        with pytest.raises(ValueError) as fresh:
            decompose(poly, r, v)
        with pytest.raises(ValueError) as ref:
            build_summand(poly, r, v)
        assert str(fresh.value) == str(ref.value)
    with pytest.raises(ValueError, match="diverges"):
        decompose([1], 1, 0)
    assert decompose([1, -2], 2, 0) == decompose(legendre_coeffs(1), 2, 0)


def test_decompose_scaling_covariance():
    for c in (2, 3, -5):
        for r, v in ((2, 0), (2, 1), (3, 2)):
            base = decompose(legendre_coeffs(2), r, v)
            scaled = decompose(legendre_coeffs(2) * c, r, v)
            assert scaled == base.scaled(Fraction(c) ** r)


def test_decompose_top_zeta_index_on_grid():
    for n in range(4):
        for r in (2, 3, 4):
            for v in range(3):
                combo = decompose(legendre_coeffs(n), r, v)
                assert combo.max_index == r + v
                assert combo.coeff(r + v) != 0


def test_decompose_matches_exact_partial_sums_on_grid():
    # numeric value of the combination sits within tail_bound of the exact
    # K-term partial sum, across the full n <= 6, r in {2,3,4}, v <= 3 grid
    K = 64
    with mpmath.workdps(40):
        for n in range(7):
            poly = legendre_coeffs(n)
            for r in (2, 3, 4):
                for v in range(4):
                    combo = decompose(poly, r, v)
                    val = eval_combination(combo, 30)
                    spec = build_summand(poly, r, v)
                    partial = series_partial_sum(spec, K)
                    sign = -1 if v % 2 else 1
                    resid = abs(sign * val.value - mpmath.mpf(partial.numerator) / partial.denominator)
                    tb = tail_bound(spec, K)
                    assert resid <= mpmath.mpf(tb.numerator) / tb.denominator + val.error_bound


def test_r2_legendre_coefficients_follow_aperys_numbers_to_n_150():
    # The moment of P_n has residues +-C(n,l) C(n+l,l) at s = -(l+1), so the
    # top-order poles of d^v/ds^v [M**2] give zeta(v+2) the coefficient
    # (v+1)! A_n, A_n = sum_l C(n,l)**2 C(n+l,l)**2 (Apery's numbers).  At
    # v = 1, Beukers' integral for zeta(3): the zeta(3) coefficient and the
    # constant both satisfy Apery's recurrence
    #   n**3 u_n = (34n**3 - 51n**2 + 27n - 5) u_(n-1) - (n-1)**3 u_(n-2);
    # the constant at other v does not.  At v = 0 the value is
    # sum_{k>=n} M(k)**2 (M(k) = 0 for k < n by orthogonality), with
    # |M(k)| <= 1/(k+1) since |P_n| <= 1: it lies in [0, 1/n].  At n = 150
    # the constants sum the harmonic terms of poles up to m = 151, far past
    # the reference tests.
    top = 150
    apery = [
        sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 for k in range(n + 1))
        for n in range(top + 1)
    ]
    with mpmath.workdps(300):
        zeta2 = Fraction(*mpmath.libmp.to_rational(mpmath.zeta(2)._mpf_))
    slack = Fraction(1, 10**290)  # above mpmath's rounding of zeta(2)
    beukers = [decompose(legendre_coeffs(n), 2, 1) for n in range(top + 1)]
    for v in range(4):
        for n in range(top + 1):
            combo = beukers[n] if v == 1 else decompose(legendre_coeffs(n), 2, v)
            assert combo.coeff(v + 2) == math.factorial(v + 1) * apery[n], (n, v)
            if v == 0 and n:
                value = apery[n] * zeta2 + combo.constant
                assert -apery[n] * slack <= value <= Fraction(1, n) + apery[n] * slack, n

    def residual(u, n):
        return n**3 * u[n] - (34 * n**3 - 51 * n**2 + 27 * n - 5) * u[n - 1] + (n - 1) ** 3 * u[n - 2]

    zeta3 = [combo.coeff(3) for combo in beukers]
    constants = [combo.constant for combo in beukers]
    for n in range(2, top + 1):
        assert residual(zeta3, n) == 0, n
        assert residual(constants, n) == 0, n

    # Beukers: c(n) = A_n zeta(3) + constant -> 0 like (sqrt(2) - 1)**(4n),
    # so the ratio of successive values climbs to 17 - 12 sqrt(2) from
    # below.  By n = 150 the two terms cancel over about 460 digits, which
    # eval_combination's magnitude boost must absorb to keep 20 digits.
    values = {n: eval_combination(beukers[n], 260) for n in range(29, top + 1)}
    for n, hp in values.items():
        assert hp.error_bound <= mpmath.mpf("1e-20") * abs(hp.value), n
    with mpmath.workdps(60):
        limit = 17 - 12 * mpmath.sqrt(2)
        ratios = [abs(values[n].value / values[n - 1].value) for n in range(30, top + 1)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(0.95 < ratio / limit < 1 for ratio in ratios)


def test_apery_report_n0():
    rep = apery_report(0, 3, 2)
    assert (rep.A, rep.B, rep.G, rep.D) == (0, 12, 0, 1)
    assert rep.divides_lcm_n and rep.divides_lcm_n1
    assert not rep.structure_mismatch


def test_apery_report_wrong_shape_keeps_combo():
    rep = apery_report(0, 2, 0)
    assert rep.A is None and rep.B is None and rep.G is None
    assert rep.combo == ZetaCombination.make({2: 1})
    assert rep.D == 1


def test_apery_report_n1_cross_checked_numerically():
    from zetalab import direct_sum_value

    rep = apery_report(1, 3, 2)
    assert rep.D % 1 == 0 and rep.D > 0
    assert lcm_upto(2) ** 5 % rep.D == 0
    # independent check: certified direct summation agrees with the
    # reconstructed (A pi^4 + B zeta(5) + G)/D value
    direct = direct_sum_value(legendre_coeffs(1), 3, 2, Fraction(1, 10**12))
    with mpmath.workdps(40):
        recon = (
            Fraction(rep.A) * mpmath.pi**4
            + rep.B * mpmath.zeta(5)
            + rep.G
        ) / rep.D
        recon = mpmath.mpf(recon.numerator) / recon.denominator if isinstance(recon, Fraction) else recon
        assert abs(recon - direct.value) <= direct.error_bound + mpmath.mpf("1e-25")


def test_report_pi4_identity_numerically():
    # (A pi^4 + B zeta(5) + G) / D equals the zeta-basis value
    with mpmath.workdps(50):
        for n in range(5):
            rep = apery_report(n, 3, 2)
            a = mpmath.mpf(rep.A.numerator) / rep.A.denominator
            lhs = (a * mpmath.pi**4 + rep.B * mpmath.zeta(5) + rep.G) / rep.D
            rhs = (
                rep.combo.coeff(4) * mpmath.zeta(4)
                + rep.combo.coeff(5) * mpmath.zeta(5)
                + rep.combo.constant
            )
            rhs = mpmath.mpf(rhs.numerator) / rhs.denominator if isinstance(rhs, Fraction) else rhs
            assert abs(lhs - rhs) < mpmath.mpf("1e-40")


def test_report_divisibility_grid():
    for n in range(8):
        rep = apery_report(n, 3, 2)
        assert lcm_upto(n + 1) ** 5 % rep.D == 0
        assert rep.divides_lcm_n1
        assert rep.divides_lcm_n == (lcm_upto(n) ** 5 % rep.D == 0)


def test_report_gcd_normalization():
    import math

    for n in range(6):
        rep = apery_report(n, 3, 2)
        g = math.gcd(rep.B, math.gcd(rep.G, rep.D))
        cleared = [q * rep.D for _, q in rep.combo.zeta] + [rep.combo.constant * rep.D]
        gg = 0
        for x in cleared:
            gg = math.gcd(gg, x.numerator)
        assert math.gcd(gg, rep.D) == 1


def test_report_json_schema():
    rep = apery_report(1, 3, 2)
    obj = rep.to_json_dict()
    text = json.dumps(obj)
    back = json.loads(text)
    assert set(back) == {
        "n", "r", "v", "zeta", "constant", "A", "B", "G", "D",
        "div_lcm_n", "div_lcm_n1", "structure_mismatch",
    }
    assert back["zeta"] == {"4": "-108", "5": "-84"}
    assert back["constant"] == "204"
    assert back["A"] == "-6/5"
    assert back["B"] == "-84"
    assert back["D"] == "1"
    assert back["div_lcm_n"] is True


def test_decomposition_report_custom_coeffs_defaults_degree():
    rep = decomposition_report(Poly([1, -2]), 2, 0)
    assert rep.n == 1
    assert rep.combo == decompose(legendre_coeffs(1), 2, 0)


def test_combination_canonical_and_roundtrip():
    c = ZetaCombination.make({5: Fraction(0), 3: Fraction(2, 3), 2: 1}, Fraction(-1, 6))
    assert c.zeta == ((2, Fraction(1)), (3, Fraction(2, 3)))
    assert c.common_denominator() == 6
    with pytest.raises(ValueError):
        ZetaCombination.make({1: 1})


def test_rationality_criterion_n0_rows():
    recs = rationality_criterion(3, 2, 0, 20)
    assert len(recs) == 1
    with mpmath.workdps(25):
        assert abs(recs[0].abs_c - 12 * mpmath.zeta(5)) < mpmath.mpf("1e-15")
    assert recs[0].ratio_to_prev is None
    recs = rationality_criterion(2, 1, 0, 20)
    with mpmath.workdps(25):
        assert abs(recs[0].abs_c - 2 * mpmath.zeta(3)) < mpmath.mpf("1e-15")


def test_rationality_criterion_ratio_definition():
    recs = rationality_criterion(3, 2, 1, 20)
    with mpmath.workdps(25):
        expected = recs[1].abs_c / recs[0].abs_c
        assert abs(recs[1].ratio_to_prev - expected) < mpmath.mpf("1e-18")
    assert recs[0].lcm_pow == 1 and recs[1].lcm_pow == 1


def test_rationality_criterion_validation():
    with pytest.raises(ValueError):
        rationality_criterion(2, 1, -1, 20)
    with pytest.raises(ValueError):
        rationality_criterion(2, 1, 2, 5)


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
    with pytest.raises(ValueError):
        lcm_upto(-1)


def test_exact_layer_imports_no_numeric_module():
    # the package __init__ re-exports the numeric layer too, so decomp is
    # imported under an empty stand-in for the package: what lands in
    # sys.modules is then what decomp and the modules below it import
    code = (
        "import importlib.util, sys, types\n"
        "pkg = types.ModuleType('zetalab')\n"
        "pkg.__path__ = importlib.util.find_spec('zetalab').submodule_search_locations\n"
        "sys.modules['zetalab'] = pkg\n"
        "import zetalab.decomp\n"
        "print(sorted({'mpmath', 'numpy', 'zetalab.verify'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr
