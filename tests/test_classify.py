import math

import numpy as np
import pytest

from painleve import (
    ClassTag,
    ClassificationError,
    Direction,
    InitialData,
    IntegrationConfig,
    ModeKind,
    PAINLEVE_I,
    PAINLEVE_II,
    TOY_MODEL,
    branch_curve,
    classify,
    count_toy_maxima,
    integrate,
    separatrix_check,
)
from painleve.classify import toy_maxima

from conftest import P1_SLOPE_REF, P1_VALUE_REF, P2_SLOPE_REF


def _neg(eq, y0, slope, horizon=-40.0, **kw):
    cfg = IntegrationConfig(t_horizon=horizon, **kw)
    return integrate(eq, InitialData(y0, slope), Direction.NEGATIVE_T, cfg)


def test_cascade_and_stable_midpoints():
    cls = classify(PAINLEVE_I, _neg(PAINLEVE_I, 0.0, 2.504031103))
    assert cls.tag is ClassTag.POLE_CASCADE
    cls = classify(PAINLEVE_I, _neg(PAINLEVE_I, 0.0, 3.504031103))
    assert cls.tag is ClassTag.STABLE_OSCILLATION
    assert cls.pole_count == 1


def test_p2_midpoints():
    cls = classify(PAINLEVE_II, _neg(PAINLEVE_II, 0.0, 1.028605106))
    assert cls.tag is ClassTag.POLE_CASCADE
    cls = classify(PAINLEVE_II, _neg(PAINLEVE_II, 0.0, 2.028605106))
    assert cls.tag is ClassTag.STABLE_OSCILLATION


def test_separatrix_validation_reference_values():
    cls = separatrix_check(PAINLEVE_I, ModeKind.SLOPE, 3.004031103)
    assert cls.tag is ClassTag.SEPARATRIX_PLUS
    assert cls.pole_count == 1
    cls = separatrix_check(PAINLEVE_II, ModeKind.SLOPE, 0.5950825526)
    assert cls.tag in (ClassTag.SEPARATRIX_PLUS, ClassTag.SEPARATRIX_MINUS)
    assert cls.pole_count == 0


def test_decay_validation_reference_value():
    cls = separatrix_check(PAINLEVE_II, ModeKind.VALUE, 1.222873339)
    assert cls.tag is ClassTag.DECAY_TO_ZERO
    assert cls.pole_count == 1


def test_divergent_classification_flanks():
    # flanking the first positive-direction critical value, the post-pole
    # blow-up direction flips
    cfg = IntegrationConfig(t_horizon=20.0, max_poles=3)
    up = integrate(PAINLEVE_II, InitialData(1.23, 0.0), Direction.POSITIVE_T, cfg)
    dn = integrate(PAINLEVE_II, InitialData(1.21, 0.0), Direction.POSITIVE_T, cfg)
    cu, cd = classify(PAINLEVE_II, up), classify(PAINLEVE_II, dn)
    assert {cu.tag, cd.tag} == {ClassTag.DIVERGENT_POSITIVE, ClassTag.DIVERGENT_NEGATIVE}
    # a run with no pole yet is read by the sign of y at its last sample
    for y0, tag in [(0.1, ClassTag.DIVERGENT_POSITIVE), (-0.1, ClassTag.DIVERGENT_NEGATIVE)]:
        traj = integrate(PAINLEVE_II, InitialData(y0, 0.0), Direction.POSITIVE_T, IntegrationConfig(t_horizon=1.0))
        cls = classify(PAINLEVE_II, traj)
        assert not traj.poles and cls.tag is tag and cls.pole_count == 0


def test_positive_direction_reads_the_blow_up_sign_at_every_tolerance():
    # 2.3e-6 below c_12, this run dips toward zero near t = 16 and blows up
    # through 23 poles, the last approached from below, at every tolerance.
    # A decay tag read from a sample that happened to land in the dip came
    # and went with the tolerance; decay is checked by separatrix_check alone
    for rel_tol in (1e-8, 1e-10, 1e-11, 1e-12, 1e-13):
        cfg = IntegrationConfig(rel_tol=rel_tol, t_horizon=30.0)
        traj = integrate(PAINLEVE_II, InitialData(2.783613149389797, 0.0), Direction.POSITIVE_T, cfg)
        cls = classify(PAINLEVE_II, traj)
        assert cls.tag is ClassTag.DIVERGENT_NEGATIVE and cls.pole_count == 23, rel_tol


def test_classify_parity_mirror():
    # the second equation is odd in y: mirrored initial data give mirrored
    # tags and identical pole counts
    for b in (1.028605106, 2.028605106):
        a = classify(PAINLEVE_II, _neg(PAINLEVE_II, 0.0, b))
        bb = classify(PAINLEVE_II, _neg(PAINLEVE_II, 0.0, -b))
        assert a.tag is bb.tag  # cascade and oscillation-about-0 are self-mirrored
        assert a.pole_count == bb.pole_count
    cfg = IntegrationConfig(t_horizon=20.0, max_poles=3)
    up = classify(PAINLEVE_II, integrate(PAINLEVE_II, InitialData(1.23, 0.0), Direction.POSITIVE_T, cfg))
    dn = classify(PAINLEVE_II, integrate(PAINLEVE_II, InitialData(-1.23, 0.0), Direction.POSITIVE_T, cfg))
    mirror = {
        ClassTag.DIVERGENT_POSITIVE: ClassTag.DIVERGENT_NEGATIVE,
        ClassTag.DIVERGENT_NEGATIVE: ClassTag.DIVERGENT_POSITIVE,
    }
    assert dn.tag is mirror[up.tag]


def test_classify_rejects_toy():
    traj = integrate(TOY_MODEL, InitialData(0.3), Direction.POSITIVE_T,
                     IntegrationConfig(t_horizon=5.0))
    with pytest.raises(ValueError):
        classify(TOY_MODEL, traj)


def test_classify_rejects_a_trajectory_of_another_equation():
    # the branch curves and the well rule are the equation's own
    p1 = _neg(PAINLEVE_I, 0.0, 2.504031103)
    p2 = _neg(PAINLEVE_II, 0.0, 1.028605106)
    for eq, traj in ((PAINLEVE_II, p1), (PAINLEVE_I, p2)):
        with pytest.raises(ValueError):
            classify(eq, traj)
    pos = integrate(PAINLEVE_II, InitialData(1.23, 0.0), Direction.POSITIVE_T, IntegrationConfig(t_horizon=5.0))
    with pytest.raises(ValueError):
        classify(PAINLEVE_I, pos)


def test_ambiguous_window_reported():
    # a run that ends in the pre-asymptotic region, pole free and not yet in
    # the stable well, fires no criterion
    traj = _neg(PAINLEVE_I, 0.0, 3.504031103, horizon=-1.0)
    assert not traj.poles and traj.stopped_by == "horizon"
    with pytest.raises(ClassificationError):
        classify(PAINLEVE_I, traj)
    # nor do runs from the first critical data that end still on their
    # branch curve: y lies below the barrier top there, so only the energy
    # half of Equation.settled keeps them out of the stable well
    for eq, y0, slope in [(PAINLEVE_I, 0.0, P1_SLOPE_REF[1]), (PAINLEVE_I, P1_VALUE_REF[1], 0.0),
                          (PAINLEVE_II, 0.0, P2_SLOPE_REF[1])]:
        for horizon in (-6.0, -7.0):
            traj = _neg(eq, y0, slope, horizon=horizon, rel_tol=1e-8)
            t, y, yp = traj.t[-1], traj.y[-1], traj.yp[-1]
            bw = branch_curve(eq, t)
            assert not traj.poles and 0.99 * bw < abs(y) < bw and not eq.settled(t, y, yp), (eq.name, horizon)
            with pytest.raises(ClassificationError):
                classify(eq, traj)


@pytest.mark.parametrize("y0,slope,poles", [(0.0, 12.6915, 10), (0.0, 13.5440, 11), (-3.80673, 0.0, 13)])
def test_stable_run_with_a_late_last_pole(y0, slope, poles):
    # these stable runs cross their last pole between t = -25.5 and -31.2,
    # too late for the mean of y over the last 10 of a run to t = -40 to
    # settle near the well's centre; they read as stable with the poles of
    # their run to t = -60
    for horizon in (-40.0, -60.0):
        traj = _neg(PAINLEVE_I, y0, slope, horizon=horizon, rel_tol=1e-8)
        cls = classify(PAINLEVE_I, traj)
        assert cls.tag is ClassTag.STABLE_OSCILLATION and cls.pole_count == poles, horizon


def test_count_toy_maxima_monotone():
    cfg = IntegrationConfig(rel_tol=1e-9)
    counts = []
    for a in np.linspace(0.3, 4.0, 16):
        traj = integrate(TOY_MODEL, InitialData(float(a)), Direction.POSITIVE_T, cfg)
        counts.append(count_toy_maxima(traj))
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]


def test_toy_settle_rule_is_exact():
    # A run stopped by TOY_MODEL.settled counts the maxima of the full run to
    # t = 50: it always settles, and only after the full run's last maximum.
    cfg = IntegrationConfig(rel_tol=1e-9)
    for a in np.random.default_rng(8).uniform(0.05, 14.5, 200):
        init = InitialData(float(a))
        full = integrate(TOY_MODEL, init, Direction.POSITIVE_T, cfg)
        assert full.stopped_by == "horizon" and full.terminal_t == 50.0
        stopped = integrate(TOY_MODEL, init, Direction.POSITIVE_T, cfg, until=TOY_MODEL.settled)
        assert stopped.stopped_by == "settled", a
        maxima = toy_maxima(full)
        assert count_toy_maxima(stopped) == len(maxima), a
        assert stopped.terminal_t > maxima[-1], a


def _stable_by_window_mean(eq, traj):
    """Reference stable rule, independent of Equation.settled, for a
    negative-direction run with no pole in its last 10 time units: the mean
    of y there lies within a quarter of the branch scale of the well's
    centre, -sqrt(-t/6) for Painleve I and 0 for Painleve II."""
    m = traj.t <= traj.terminal_t + 10.0
    bw = branch_curve(eq, traj.t[m]).mean()
    centre = -bw if eq is PAINLEVE_I else 0.0
    return abs(traj.y[m].mean() - centre) <= 0.25 * bw


def test_well_trap_rule_is_exact():
    # A run stopped by Equation.settled is stable for good. On random
    # negative-direction starts over the scan ranges of the session tables
    # (P-I slope n = 11, P-I value n = 15, P-II slope n = 21), a run that is
    # trapped classifies as stable on its full run to t = -40, with the same
    # poles, and every full run that classifies as stable was trapped. A run
    # that is never trapped is its own full run. Where the full run has no
    # pole in its last 10 time units, the window mean of y agrees with the
    # rule.
    cfg = IntegrationConfig(rel_tol=1e-8, t_horizon=-40.0)
    rng = np.random.default_rng(29)
    trapped = compared = 0
    for eq, mode, lo, hi in [(PAINLEVE_I, ModeKind.SLOPE, 0.2, 8.74), (PAINLEVE_I, ModeKind.VALUE, -2.7, -0.1),
                             (PAINLEVE_II, ModeKind.SLOPE, 0.1, 8.79)]:
        for x in rng.uniform(lo, hi, 60).tolist():
            init = InitialData(0.0, x) if mode is ModeKind.SLOPE else InitialData(x, 0.0)
            stopped = integrate(eq, init, Direction.NEGATIVE_T, cfg, until=eq.settled)
            full = stopped if stopped.stopped_by != "settled" else integrate(eq, init, Direction.NEGATIVE_T, cfg)
            cls = classify(eq, full)
            stable = cls.tag is ClassTag.STABLE_OSCILLATION
            assert (stopped.stopped_by == "settled") == stable, (eq.name, mode, x)
            if not full.poles or full.poles[-1].location > full.terminal_t + 10.0:
                compared += 1
                assert _stable_by_window_mean(eq, full) == stable, (eq.name, mode, x)
            if stable:
                trapped += 1
                assert cls.pole_count == len(stopped.poles), (eq.name, mode, x)
                assert [p.location for p in stopped.poles] == [p.location for p in full.poles]
    assert trapped >= 60 and compared >= 60
    # the rule is false where the search runs forward (P-II value mode)
    grid = np.linspace(-4.0, 4.0, 17).tolist()
    for eq in (PAINLEVE_I, PAINLEVE_II):
        assert not any(eq.settled(t, y, yp) for t in (0.0, 1e-12, 0.5, 3.0, 40.0) for y in grid for yp in grid)


def test_trapped_run_classifies_as_stable_with_all_its_poles():
    # the run stops 2.3 after its one pole, so its window (10 long) holds
    # that pole; the trap at its last sample decides, before the pole
    cfg = IntegrationConfig(rel_tol=1e-8, t_horizon=-40.0)
    stopped = integrate(PAINLEVE_I, InitialData(0.0, 3.504031103), Direction.NEGATIVE_T, cfg,
                        until=PAINLEVE_I.settled)
    assert stopped.stopped_by == "settled" and not stopped.truncated
    assert len(stopped.poles) == 1 and stopped.poles[-1].location - stopped.terminal_t < 10.0
    cls = classify(PAINLEVE_I, stopped)
    assert cls.tag is ClassTag.STABLE_OSCILLATION and cls.pole_count == 1
    assert cls.confidence_window == (stopped.terminal_t, stopped.terminal_t + 10.0)


def test_count_toy_maxima_counts_level_crossings():
    # A maximum of y is an upward crossing of u = t y through a level
    # 2k + 1/2, and u crosses those levels upward only, starting from u = 0.
    # So the count is exact from the last sample alone, however long the
    # steps that led there. The first case holds one step that crosses two
    # levels, which sign changes of y' between samples counted as none.
    rng = np.random.default_rng(13)
    cases = [(3.9720647697219613, 13.198333523294993, 1e-6)] + [
        (rng.uniform(0.05, 7.0), rng.uniform(2.0, 50.0), rng.choice([1e-6, 1e-8, 1e-9, 1e-10]))
        for _ in range(200)
    ]
    for a, horizon, rel_tol in cases:
        cfg = IntegrationConfig(rel_tol=rel_tol, t_horizon=horizon)
        traj = integrate(TOY_MODEL, InitialData(a), Direction.POSITIVE_T, cfg)
        u = traj.t[-1] * traj.y[-1]
        crossed = max(0, math.floor((u - 0.5) / 2.0) + 1)
        assert count_toy_maxima(traj) == crossed, (a, horizon, rel_tol)


def test_count_toy_maxima_rejects_others():
    traj = _neg(PAINLEVE_I, 0.0, 1.0, horizon=-5.0)
    with pytest.raises(ValueError):
        count_toy_maxima(traj)
