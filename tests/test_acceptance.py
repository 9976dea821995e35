"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured worst case (run with -s to see them)."""

import math
import time

import numpy as np
import pytest

from painleve import (
    ClassTag,
    Direction,
    InitialData,
    IntegrationConfig,
    ModeKind,
    PAINLEVE_I,
    PAINLEVE_II,
    classify,
    closed_form_constants,
    energy,
    estimate_pole,
    extract_constant,
    fluctuation_integral,
    integrate,
    richardson,
    scan_brackets,
    bisect,
    separatrix_check,
)
from conftest import (
    CONST_REF,
    P1_SLOPE_REF,
    P1_VALUE_REF,
    P2_SLOPE_REF,
    P2_VALUE_REF,
    arc_exit,
    toy_count,
)

TOL_EIGEN = 1e-6


def _check_table(table, ref):
    worst = 0.0
    for rec in table:
        if rec.index in ref:
            worst = max(worst, abs(rec.value - ref[rec.index]))
            assert abs(rec.value - ref[rec.index]) <= TOL_EIGEN
    return worst


def test_criterion_1_p1_slope_eigenvalues(p1_slope_table):
    start = time.time()
    worst = _check_table(p1_slope_table, P1_SLOPE_REF)
    print(f"\ncriterion 1 PASS: P-I slope b1..b5, b10, b11 within {worst:.2e} "
          f"(<= 1e-6; table cached, check {time.time()-start:.2f}s)")


def test_criterion_2_p1_value_eigenvalues(p1_value_table):
    worst = _check_table(p1_value_table, P1_VALUE_REF)
    print(f"\ncriterion 2 PASS: P-I value c1..c4 within {worst:.2e} (<= 1e-6)")


def test_criterion_3_p2_slope_eigenvalues(p2_slope_table):
    worst = _check_table(p2_slope_table, P2_SLOPE_REF)
    print(f"\ncriterion 3 PASS: P-II slope b1..b5, b20, b21 within {worst:.2e} (<= 1e-6)")


def test_criterion_4_p2_value_eigenvalues(p2_value_table):
    worst = _check_table(p2_value_table, P2_VALUE_REF)
    print(f"\ncriterion 4 PASS: P-II value c1..c4, c13, c14 within {worst:.2e} (<= 1e-6)")


def test_criterion_5_closed_form_constants():
    c = closed_form_constants()
    checks = [
        ("p1_slope", c.p1_slope, 5e-9),
        ("p1_value", c.p1_value, 5e-8),
        ("p2_slope", c.p2_slope, 5e-8),
        # final quoted digit carries +-1 per the source; exact value .16593
        ("p2_value", c.p2_value, 1e-8),
    ]
    worst = 0.0
    for name, val, tol in checks:
        err = abs(val - CONST_REF[name])
        worst = max(worst, err / tol)
        assert err <= tol, f"{name}: {val} vs {CONST_REF[name]}"
    print(f"\ncriterion 5 PASS: closed forms match all quoted digits "
          f"(worst at {worst:.2f} of the digit tolerance)")


def test_criterion_6_extrapolation_agreement(
    p1_slope_table, p1_value_table, p2_slope_table, p2_value_table
):
    c = closed_form_constants()
    r = extract_constant(p1_slope_table, 3.0 / 5.0, 5)
    d1 = abs(r.estimate - c.p1_slope)
    assert d1 <= 1e-5
    r = extract_constant(p1_value_table, 2.0 / 5.0, 4)
    d2 = abs(r.estimate - c.p1_value)
    assert d2 <= 1e-5
    even, odd = extract_constant(p2_slope_table, 2.0 / 3.0, 4, split_even_odd=True)
    d3 = max(abs(even.estimate - c.p2_slope), abs(odd.estimate - c.p2_slope))
    assert d3 <= 1e-4
    r = extract_constant(p2_value_table, 1.0 / 3.0, 4)
    d4 = abs(r.estimate - c.p2_value)
    assert d4 <= 1e-4
    print(f"\ncriterion 6 PASS: Richardson deviations {d1:.2e} (<=1e-5), "
          f"{d2:.2e} (<=1e-5), {d3:.2e} (<=1e-4), {d4:.2e} (<=1e-4)")


def test_criterion_7_pole_count_law(
    p1_slope_table, p1_value_table, p2_slope_table, p2_value_table
):
    for table in (p1_slope_table, p1_value_table, p2_slope_table):
        for rec in table:
            if rec.index <= 11:
                assert rec.pole_count == rec.index // 2, (rec.index, rec.pole_count)
    for rec in p2_value_table:
        if rec.index <= 6:
            assert rec.pole_count == rec.index
    # independent re-measurement of the positive-direction counts from the
    # decay certificate of the converged trajectories
    for rec in p2_value_table[:6]:
        cls = separatrix_check(PAINLEVE_II, rec.mode, rec.value)
        assert cls.tag is ClassTag.DECAY_TO_ZERO
        assert cls.pole_count == rec.index
    print("\ncriterion 7 PASS: pole counts are floor(n/2) (negative direction, "
          "n<=11) and n (positive direction, n<=6), integer-exact")


def test_criterion_8_toy_model(toy_table):
    target = 2.0 ** (5.0 / 6.0)
    worst = 0.0
    for n in range(40, 51):
        ratio = toy_table[n - 1].value / math.sqrt(n)
        worst = max(worst, abs(ratio / target - 1.0))
        assert abs(ratio / target - 1.0) <= 0.02
    cfg = IntegrationConfig(rel_tol=1e-9)
    for n in (1, 5, 25, 50):
        a = toy_table[n - 1].value
        eps = 2.0 * toy_table[n - 1].bracket_width + 1e-6
        jump = toy_count(a + eps, cfg) - toy_count(a - eps, cfg)
        assert jump == 1, (n, jump)
    print(f"\ncriterion 8 PASS: a_n/sqrt(n) within {100*worst:.2f}% of 2^(5/6) "
          "(<= 2%), count jumps exactly 1 at a_1, a_5, a_25, a_50")


def test_criterion_9a_richardson_exactness():
    rng = np.random.default_rng(11)
    for k in range(1, 6):
        coeffs = rng.uniform(-3, 3, size=k + 1)
        limit = coeffs[0]
        seq = [limit + sum(cc / n**j for j, cc in enumerate(coeffs[1:], start=1))
               for n in range(1, k + 10)]
        assert richardson(seq, k).estimate == pytest.approx(limit, abs=5e-8)
    print("\ncriterion 9a PASS: Richardson annihilates degree<=k tails")


def test_criterion_9b_pole_estimator_machine_precision():
    for t in (0.0, 3.0):
        assert abs(estimate_pole(PAINLEVE_I, t, (t - 5.0) ** -2, -2.0 * (t - 5.0) ** -3) - 5.0) <= 1e-12 * 5.0
        assert abs(estimate_pole(PAINLEVE_II, t, 1.0 / (t - 6.0), -1.0 / (t - 6.0) ** 2) - 6.0) <= 1e-12 * 6.0
    print("\ncriterion 9b PASS: pole estimator exact on Laurent data")


def test_criterion_9c_energy_identity():
    # a pole-free run, and two that cross poles: the README P-I cascade and
    # P-II from slope 1.5
    cfg = IntegrationConfig(t_horizon=-20.0)
    runs = []
    for eq, slope, cascade in ((PAINLEVE_I, 1.0, False), (PAINLEVE_I, 2.504031103, True),
                               (PAINLEVE_II, 1.5, True)):
        traj = integrate(eq, InitialData(0.0, slope), Direction.NEGATIVE_T, cfg)
        assert bool(traj.poles) == cascade
        I = fluctuation_integral(eq, traj)
        H = energy(eq, traj.y, traj.yp)
        defect = np.abs(H - H[0] - I).max()
        scale = max(1.0, np.abs(H).max())
        assert defect <= 10.0 * cfg.rel_tol * scale
        runs.append(f"{defect:.2e} = {defect / (cfg.rel_tol * scale):.2f} rel_tol*scale "
                    f"({len(traj.poles)} poles)")
    print(f"\ncriterion 9c PASS: |H(x) - H(0) - I(x)| <= {'; '.join(runs)} (bound 10 rel_tol*scale)")


def test_criterion_9d_detour_conjugation():
    # the series crossing against a complex path: from the entries of the
    # first three poles of two cascades, the arcs through the upper and the
    # lower half plane exit at conjugate states, and the exit the Laurent
    # crossing gave the trajectory agrees with both (I relative to max(1, |H|))
    conj = gap = 0.0
    for eq, init in ((PAINLEVE_I, InitialData(0.0, 2.504031103)), (PAINLEVE_II, InitialData(0.0, 1.5))):
        traj = integrate(eq, init, Direction.NEGATIVE_T, IntegrationConfig(t_horizon=-12.0))
        for pole in traj.poles[:3]:
            i = pole.entry_index
            entry, exit_ = ((traj.t[j], traj.y[j], traj.yp[j], traj.fluct[j]) for j in (i, i + 1))
            up, dn = (arc_exit(eq, entry, pole.location, s) for s in (1, -1))
            scales = (abs(exit_[1]), abs(exit_[2]), max(1.0, abs(eq.hamiltonian(*entry[1:3]))))
            for u, d, x, scale in zip(up, dn, exit_[1:], scales):
                conj = max(conj, abs(u - d.conjugate()) / scale)
                gap = max(gap, abs(u - x) / scale, abs(d - x) / scale)
    assert conj <= 1e-12
    assert gap <= 1e-11
    print(f"\ncriterion 9d PASS: half-plane arcs conjugate to {conj:.2e} (<= 1e-12), "
          f"Laurent exits within {gap:.2e} of both (<= 1e-11)")


def test_criterion_9e_p2_parity(p2_slope_table):
    brackets = scan_brackets(PAINLEVE_II, ModeKind.SLOPE, (-1.7, -0.1), 0.1)
    negs = sorted(bisect(PAINLEVE_II, ModeKind.SLOPE, b, tol=1e-9).value for b in brackets)
    assert negs[0] == pytest.approx(-p2_slope_table[1].value, abs=1e-7)
    assert negs[1] == pytest.approx(-p2_slope_table[0].value, abs=1e-7)
    print("\ncriterion 9e PASS: negative-slope criticals mirror the positive table")


def test_criterion_9f_constant_class_between_eigenvalues():
    b1, b2, b3 = P1_SLOPE_REF[1], P1_SLOPE_REF[2], P1_SLOPE_REF[3]
    for b in np.linspace(b1 + 0.05, b2 - 0.05, 5):
        traj = integrate(PAINLEVE_I, InitialData(0.0, float(b)), Direction.NEGATIVE_T)
        assert classify(PAINLEVE_I, traj).tag is ClassTag.POLE_CASCADE
    for b in np.linspace(b2 + 0.05, b3 - 0.05, 5):
        traj = integrate(PAINLEVE_I, InitialData(0.0, float(b)), Direction.NEGATIVE_T)
        assert classify(PAINLEVE_I, traj).tag is ClassTag.STABLE_OSCILLATION
    print("\ncriterion 9f PASS: class constant on 5-point grids strictly inside "
          "(b1, b2) and (b2, b3)")
