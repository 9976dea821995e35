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
    classify,
    count_toy_maxima,
    integrate,
    separatrix_check,
)
from painleve.classify import toy_maxima


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


def test_ambiguous_window_reported():
    # a pole-free window in the pre-asymptotic region fires no criterion
    traj = _neg(PAINLEVE_I, 0.0, 3.504031103, horizon=-40.0)
    with pytest.raises(ClassificationError):
        classify(PAINLEVE_I, traj, window=(-2.0, -0.5))


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
        u = traj.t[-1] * traj.real_y()[-1]
        crossed = max(0, math.floor((u - 0.5) / 2.0) + 1)
        assert count_toy_maxima(traj) == crossed, (a, horizon, rel_tol)


def test_count_toy_maxima_rejects_others():
    traj = _neg(PAINLEVE_I, 0.0, 1.0, horizon=-5.0)
    with pytest.raises(ValueError):
        count_toy_maxima(traj)
