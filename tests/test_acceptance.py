"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from fraction_reference import build_summand, tail_bound
from zetalab import (
    Poly,
    ZetaCombination,
    apery_report,
    decompose,
    direct_sum_value,
    eval_combination,
    integrate_poly_01,
    lcm_upto,
    legendre_coeffs,
    mc_integral,
    moment_closed_form,
    moment_from_coeffs,
    rationality_criterion,
)


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_exact_n0_identities():
    p0 = legendre_coeffs(0)
    cases = [
        ((2, 0), ZetaCombination.make({2: 1})),
        ((3, 0), ZetaCombination.make({3: 1})),
        ((2, 1), ZetaCombination.make({3: 2})),
        ((3, 2), ZetaCombination.make({5: 12})),
    ]
    for (r, v), want in cases:
        t0 = time.monotonic()
        got = decompose(p0, r, v)
        dt = time.monotonic() - t0
        assert got == want, f"decompose(P_0, {r}, {v}) = {got}, wanted {want}"
        assert dt < 1.0, f"identity (r={r}, v={v}) took {dt:.2f}s, budget 1s"
    _report(1, "n=0 identities zeta(2), zeta(3), 2*zeta(3), 12*zeta(5) exact, <1s each")


def test_criterion_2_moment_formula_repair():
    t0 = time.monotonic()
    for n in range(21):
        assert moment_closed_form(n) == moment_from_coeffs(legendre_coeffs(n)), (
            f"closed form disagrees with coefficient-sum moment at n={n}"
        )
    dt = time.monotonic() - t0
    assert dt < 10.0, f"n <= 20 equality sweep took {dt:.1f}s, budget 10s"

    # negative control: the uncorrected product form (extra j=0 factor)
    # must fail the n=0 sanity check
    num, den = Poly([1]), Poly([1, 1])
    for j in range(0 + 1):
        num, den = num * Poly([1 - j, 1]), den * Poly([j, 1])
    m_num, m_den = moment_from_coeffs(legendre_coeffs(0))
    assert num * m_den != m_num * den, (
        "uncorrected product form unexpectedly matches the true moment at n=0"
    )
    _report(2, "closed form == coefficient-sum moment for n<=20; uncorrected form fails n=0")


def test_criterion_3_oracle_triangle():
    k_budget = 20000
    floor = Fraction(1, 10**25)
    checked = 0
    for n in range(7):
        poly = legendre_coeffs(n)
        for r in (2, 3):
            for v in range(4):
                combo = decompose(poly, r, v)
                exact = eval_combination(combo, 30)
                spec = build_summand(poly, r, v)
                target = max(floor, 2 * tail_bound(spec, k_budget))
                direct = direct_sum_value(poly, r, v, target)
                with mpmath.workdps(40):
                    delta = abs(exact.value - direct.value)
                    bound = exact.error_bound + direct.error_bound
                    assert delta <= bound, (
                        f"oracle triangle failed at (n={n}, r={r}, v={v}): "
                        f"|delta|={mpmath.nstr(delta, 5)} > bound={mpmath.nstr(bound, 5)}"
                    )
                checked += 1
    assert checked == 56
    _report(3, "exact vs certified direct sum within combined bounds on all 56 cases")


def test_criterion_4_integral_side_validation():
    seed = 42
    for n in range(3):
        poly = legendre_coeffs(n)
        for r in (2, 3):
            for v in range(3):
                exact = eval_combination(decompose(poly, r, v), 25)
                est = mc_integral(poly, r, v, 10**6, seed=seed)
                with mpmath.workdps(30):
                    delta = abs(exact.value - mpmath.mpf(est.mean))
                    assert delta <= 4 * est.stderr, (
                        f"MC disagrees at (n={n}, r={r}, v={v}): "
                        f"delta={mpmath.nstr(delta, 4)} > 4*stderr={4 * est.stderr:.3e}"
                    )
                    if n == 0:
                        assert est.stderr <= 0.02 * abs(float(exact.value)), (
                            f"stderr {est.stderr:.3e} above 2% of |value| at (r={r}, v={v})"
                        )
    _report(4, "Monte Carlo within 4*stderr on 18 cases; stderr <= 2% of |value| at n=0")


def test_criterion_5_paper_example_structure():
    lcm_n_divisibility = []
    for n in range(11):
        rep = apery_report(n, 3, 2)
        assert rep.combo.coeff(2) == 0 and rep.combo.coeff(3) == 0, (
            f"unexpected zeta(2)/zeta(3) coefficient at n={n}: {rep.combo.as_dict()}"
        )
        assert not rep.structure_mismatch
        assert rep.A is not None and rep.B is not None and rep.G is not None
        assert lcm_upto(n + 1) ** 5 % rep.D == 0, (
            f"D={rep.D} does not divide lcm(1..{n + 1})^5 at n={n}"
        )
        lcm_n_divisibility.append((n, rep.divides_lcm_n))
    # recorded, not asserted: the stronger lcm(1..n)^5 divisibility
    recorded = ", ".join(f"n={n}:{'yes' if ok else 'NO'}" for n, ok in lcm_n_divisibility)
    _report(5, f"q_2=q_3=0 and D | lcm(1..n+1)^5 for n<=10; lcm(1..n)^5 record: {recorded}")


def test_criterion_6_orthogonality_regression():
    for n in range(11):
        pn = legendre_coeffs(n)
        for m in range(11):
            val = integrate_poly_01(pn * legendre_coeffs(m))
            want = Fraction(1, 2 * n + 1) if n == m else Fraction(0)
            assert val == want, f"orthogonality failed at (n={n}, m={m}): {val}"
    _report(6, "exact orthogonality 1/(2n+1) on the n, m <= 10 grid")


def test_criterion_7_criterion_scan_sanity():
    records = rationality_criterion(2, 1, 20, 50)
    abs_c = [rec.abs_c for rec in records]
    for n in range(2, 20):
        assert abs_c[n] > abs_c[n + 1], (
            f"|c(n)| not strictly decreasing at n={n}: {abs_c[n]} <= {abs_c[n + 1]}"
        )
    target = (math.sqrt(2) - 1) ** 4
    ratios = {rec.n: float(rec.ratio_to_prev) for rec in records if rec.n >= 15}
    off = {n: rho for n, rho in ratios.items() if abs(rho - target) / target > 0.20}
    assert not off, (
        "decay ratio left the ±20% window around (sqrt(2)-1)^4 = "
        f"{target:.6f}; measured ratios for investigation: {ratios}"
    )
    _report(
        7,
        f"|c(n)| strictly decreasing on 2..20; ratios in ±20% of {target:.5f} "
        f"for 15..20 (measured {min(ratios.values()):.5f}..{max(ratios.values()):.5f})",
    )


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "zetalab.cli", *args], capture_output=True, text=True
    )


def test_criterion_8_determinism():
    scan_args = ["scan", "--r", "2", "--v", "1", "--n-max", "8", "--prec", "30"]
    a, b = _run_cli(scan_args), _run_cli(scan_args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout, "scan stdout differs between identical runs"
    verify_args = [
        "verify", "--n", "1", "--r", "2", "--v", "1",
        "--prec", "25", "--samples", "200000", "--seed", "2024",
    ]
    c, d = _run_cli(verify_args), _run_cli(verify_args)
    assert c.returncode == d.returncode == 0
    assert c.stdout == d.stdout, "verify stdout differs between identical runs"
    _report(8, "repeated scan and verify runs byte-identical on stdout")
