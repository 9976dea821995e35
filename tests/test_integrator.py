import math

import numpy as np
import pytest

from painleve import (
    DegenerateDerivativeError,
    Direction,
    InitialData,
    IntegrationConfig,
    PAINLEVE_I,
    PAINLEVE_II,
    TOY_MODEL,
    State,
    branch_curve,
    estimate_pole,
    integrate,
)
from painleve.integrator import _advance, _run_arc


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(detour_start=1.0)
    with pytest.raises(ValueError):
        IntegrationConfig(min_step=-1e-3)
    cfg = IntegrationConfig()
    assert cfg.resolved_horizon(PAINLEVE_I, Direction.NEGATIVE_T) == -60.0
    assert cfg.resolved_horizon(PAINLEVE_II, Direction.POSITIVE_T) == 30.0
    assert cfg.resolved_horizon(TOY_MODEL, Direction.POSITIVE_T) == 50.0


def test_direction_restrictions():
    with pytest.raises(ValueError):
        integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.POSITIVE_T)
    with pytest.raises(ValueError):
        integrate(TOY_MODEL, InitialData(0.5), Direction.NEGATIVE_T)


def test_estimate_pole_exact_on_laurent_data():
    # synthetic states sampled from exact leading Laurent terms
    for t in (0.0, 2.0, 4.9):
        d = t - 5.0
        s = State(complex(t), complex(d**-2), complex(-2.0 * d**-3))
        t0 = estimate_pole(PAINLEVE_I, s)
        assert abs(t0 - 5.0) <= 1e-12 * 5.0
    for t in (0.0, 2.5):
        d = t - 3.0
        s = State(complex(t), complex(1.0 / d), complex(-1.0 / d**2))
        t0 = estimate_pole(PAINLEVE_II, s)
        assert abs(t0 - 3.0) <= 1e-12 * 3.0


def test_estimate_pole_degenerate():
    with pytest.raises(DegenerateDerivativeError):
        estimate_pole(PAINLEVE_I, State(0.0 + 0j, 1e6 + 0j, 0.0 + 0j))
    with pytest.raises(ValueError):
        estimate_pole(TOY_MODEL, State(0.0 + 0j, 1.0 + 0j, 1.0 + 0j))


def test_estimator_location_converges_with_threshold():
    # shrinking the engagement threshold tenfold moves the estimated first
    # pole location by far less than one percent of the detour radius
    locs = {}
    for ds in (15.0, 150.0):
        cfg = IntegrationConfig(t_horizon=-4.0, detour_start=ds)
        traj = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg)
        locs[ds] = (traj.poles[0].location, traj.poles[0].detour_radius)
    drift = abs(locs[15.0][0] - locs[150.0][0])
    assert drift <= 1e-2 * locs[15.0][1]


def test_detour_pure_double_pole_mirror():
    # on the scale-free model y'' = 6 y^2 the pure double pole is an exact
    # solution and the half circle maps the entry to its mirror image
    f = lambda t, y, yp: (yp, 6.0 * y * y)
    r = 0.05
    entry = State(complex(5.0 + r), complex(r**-2), complex(-2.0 * r**-3))
    out, _ = _run_arc(f, entry, complex(5.0), r, IntegrationConfig(), 0.0, math.pi)
    assert out.t.real == pytest.approx(5.0 - r, abs=1e-12)
    assert out.y.real == pytest.approx(r**-2, rel=1e-9)
    assert out.yp.real == pytest.approx(2.0 * r**-3, rel=1e-9)
    assert out.y.imag == 0.0 and out.yp.imag == 0.0


def test_detour_pure_simple_pole_mirror():
    f = lambda t, y, yp: (yp, 2.0 * y * y * y)
    r = 0.05
    entry = State(complex(3.0 + r), complex(1.0 / r), complex(-1.0 / r**2))
    out, _ = _run_arc(f, entry, complex(3.0), r, IntegrationConfig(), 0.0, math.pi)
    assert out.y.real == pytest.approx(-1.0 / r, rel=1e-9)
    assert out.yp.real == pytest.approx(-1.0 / r**2, rel=1e-9)


def _first_pole_entry(radius):
    """True state on the detour circle of the first cascade pole of the
    slope-2.504031103 trajectory."""
    ref = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T,
                    IntegrationConfig(t_horizon=-4.0, rel_tol=1e-12, abs_tol=1e-14))
    t0 = ref.poles[0].location
    # suppress pole handling for the prefix: it ends before the pole
    pre = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T,
                    IntegrationConfig(t_horizon=t0 + radius, rel_tol=1e-12, abs_tol=1e-14,
                                      detour_start=1e6))
    assert not pre.poles
    return t0, State(complex(t0 + radius), complex(pre.real_y()[-1]), complex(pre.real_yp()[-1]))


def test_detour_radius_robustness():
    # halving the radius (and walking the difference on the real axis)
    # reproduces the exit state to a few parts in 1e9
    cfg = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13)
    r = 0.2
    t0, entry = _first_pole_entry(r)
    exit_full, _ = _run_arc(PAINLEVE_I.rhs, entry, complex(t0), r, cfg, 0.0, math.pi)

    t0h, entry_h = _first_pole_entry(r / 2)
    exit_half, _ = _run_arc(PAINLEVE_I.rhs, entry_h, complex(t0h), r / 2, cfg, 0.0, math.pi)
    s, u, v, _, tok = _advance(PAINLEVE_I.rhs, exit_half.t.real, exit_half.y, exit_half.yp,
                               t0 - r, cfg, lambda *a: None)
    assert tok is None
    assert abs(u.real - exit_full.y.real) <= 1e-8 * abs(exit_full.y.real)
    assert abs(v.real - exit_full.yp.real) <= 1e-8 * abs(exit_full.yp.real)


def test_detour_half_plane_conjugation():
    # upper and lower detours give identical real exits
    cfg = IntegrationConfig(t_horizon=-12.0)
    up = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg, half_plane=1)
    dn = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg, half_plane=-1)
    assert len(up.poles) == len(dn.poles)
    for pu, pd in zip(up.poles, dn.poles):
        assert pu.location == pytest.approx(pd.location, abs=1e-8)
    assert up.real_y()[-1] == pytest.approx(dn.real_y()[-1], rel=1e-6, abs=1e-8)
    # arc samples are mirror images: their imaginary parts have opposite sign
    assert (up.t.imag >= 0.0).all() and (dn.t.imag <= 0.0).all()
    with pytest.raises(ValueError):
        integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg, half_plane=0)


def test_trajectory_structure_cascade():
    traj = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T,
                     IntegrationConfig(t_horizon=-20.0))
    assert traj.stopped_by == "horizon"
    locs = [p.location for p in traj.poles]
    assert all(b < a for a, b in zip(locs, locs[1:]))  # strictly advancing
    assert traj.equation.pole_order == 2
    assert all(p.entry_index < p.exit_index for p in traj.poles)
    # real-axis sample between consecutive poles
    rt = traj.real_t()
    for a, b in zip(locs, locs[1:]):
        assert ((rt < a) & (rt > b)).any()
    # samples ordered by Re t in the sweep direction
    assert (np.diff(traj.t.real) <= 1e-12).all()
    # reality away from detours
    ri = traj.real_indices()
    assert np.abs(traj.y[ri].imag).max() == 0.0
    # the sweep runs in floats, but the public arrays stay complex
    assert traj.t.dtype == traj.y.dtype == traj.yp.dtype == np.complex128


def test_pole_cap_truncates():
    cfg = IntegrationConfig(t_horizon=-20.0, max_poles=3)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg)
    assert traj.stopped_by == "pole-cap"
    assert traj.truncated
    assert len(traj.poles) == 4 and traj.poles[-1].entry_index is None
    assert all(p.entry_index is not None for p in traj.poles[:-1])


def test_integrate_estimates_poles_with_estimate_pole(monkeypatch):
    # the pipeline's pole estimate is the public estimate_pole, one call per
    # recorded pole, the cap-terminating event included
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return estimate_pole(*args, **kwargs)

    monkeypatch.setattr("painleve.integrator.estimate_pole", counting)
    init = InitialData(0.0, 2.504031103)
    traj = integrate(PAINLEVE_I, init, Direction.NEGATIVE_T, IntegrationConfig(t_horizon=-12.0))
    assert traj.stopped_by == "horizon" and traj.poles
    assert len(calls) == len(traj.poles)
    calls.clear()
    capped = integrate(PAINLEVE_I, init, Direction.NEGATIVE_T,
                       IntegrationConfig(t_horizon=-12.0, max_poles=3))
    assert capped.stopped_by == "pole-cap"
    assert len(calls) == len(capped.poles) == 4


def test_determinism():
    cfg = IntegrationConfig(t_horizon=-15.0)
    a = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg)
    b = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg)
    assert np.array_equal(a.t, b.t) and np.array_equal(a.y, b.y) and np.array_equal(a.yp, b.yp)
    assert [p.location for p in a.poles] == [p.location for p in b.poles]


def test_tolerance_convergence_pole_free():
    # tightening rel_tol by 1e2 moves the terminal value by < 1e3 * rel_tol
    tight = IntegrationConfig(t_horizon=-20.0, rel_tol=1e-10, abs_tol=1e-13)
    loose = IntegrationConfig(t_horizon=-20.0, rel_tol=1e-8, abs_tol=1e-11)
    a = integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.NEGATIVE_T, loose)
    b = integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.NEGATIVE_T, tight)
    assert not a.poles and not b.poles
    ya, yb = a.real_y()[-1], b.real_y()[-1]
    assert abs(ya - yb) / abs(yb) < 1e3 * tight.rel_tol


def test_known_trajectories():
    # mid-interval slope: one double pole, then stable tracking of the
    # negative branch
    traj = integrate(PAINLEVE_I, InitialData(0.0, 3.504031103), Direction.NEGATIVE_T)
    assert len(traj.poles) == 1
    rt, ry = traj.real_t(), traj.real_y()
    m = rt <= -50.0
    assert abs(ry[m].mean() + branch_curve(PAINLEVE_I, rt[m]).mean()) < 0.2

    # critical slope given to 10 reference digits: no poles while shadowing the
    # positive branch. The ~3e-10 residual of the reference value amplifies
    # to ~2e-6 by the turning point, so the demonstrable shadow ends near
    # t = -7; the check stays inside it.
    traj = integrate(PAINLEVE_I, InitialData(0.0, 1.851854034), Direction.NEGATIVE_T,
                     IntegrationConfig(t_horizon=-7.0, rel_tol=1e-12, abs_tol=1e-14))
    assert len(traj.poles) == 0
    rt, ry = traj.real_t(), traj.real_y()
    m = rt <= -6.4
    assert np.max(np.abs(ry[m] / branch_curve(PAINLEVE_I, rt[m]) - 1.0)) < 1e-3

    # positive-direction critical value: one simple pole, then decay
    traj = integrate(PAINLEVE_II, InitialData(1.222873339, 0.0), Direction.POSITIVE_T,
                     IntegrationConfig(t_horizon=8.0, max_step=0.05))
    assert len(traj.poles) == 1
    rt, ry = traj.real_t(), traj.real_y()
    assert np.abs(ry[rt > 6.0]).min() < 1e-3


def test_toy_trajectory_bounded():
    traj = integrate(TOY_MODEL, InitialData(0.25), Direction.POSITIVE_T)
    assert traj.yp is None
    assert not traj.poles
    ry = traj.real_y()
    assert np.abs(ry).max() < 2.0
    # late-time amplitude decays roughly like 1/t
    rt = traj.real_t()
    assert abs(ry[-1]) < 0.1
