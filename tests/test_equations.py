
import dataclasses

import numpy as np
import pytest

from painleve import (
    InitialData,
    IntegrationConfig,
    Direction,
    PAINLEVE_I,
    PAINLEVE_II,
    TOY_MODEL,
    branch_curve,
    energy,
    equation_from_name,
    fluctuation_integral,
    integrate,
)
from painleve.equations import _FLUCT_BLOCK


def test_equation_singularity_structure():
    assert PAINLEVE_I.pole_order == 2 and not PAINLEVE_I.first_order
    assert PAINLEVE_II.pole_order == 1 and not PAINLEVE_II.first_order
    assert TOY_MODEL.pole_order == 0 and TOY_MODEL.first_order
    assert equation_from_name("p2") is PAINLEVE_II
    with pytest.raises(ValueError):
        equation_from_name("p7")


def test_initial_data_posed_at_zero():
    # the data carry no start time: every trajectory begins at t = 0
    with pytest.raises(TypeError):
        InitialData(0.0, 1.0, t_start=-1.0)
    traj = integrate(PAINLEVE_II, InitialData(0.4, -1.5), Direction.POSITIVE_T,
                     IntegrationConfig(t_horizon=0.5))
    assert (traj.t[0], traj.y[0], traj.yp[0]) == (0.0, 0.4, -1.5)


@pytest.mark.parametrize(
    "eq,t,y,expect",
    [
        (PAINLEVE_I, 0.0, 0.0, 0.0),
        (PAINLEVE_I, -6.0, 1.0, 0.0),
        (PAINLEVE_II, -2.0, 1.0, 0.0),
        (TOY_MODEL, 1.0, 0.5, 0.0),
    ],
)
def test_rhs_zeros(eq, t, y, expect):
    # the pair (y', y'') the integrator runs; at y' = 0 both components vanish
    # here (for the toy model the first component is y' = cos(pi t y))
    for component in eq.rhs(t, y, 0.0):
        assert abs(component - expect) <= 1e-15


def test_rhs_reality_and_parity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t, y, yp = rng.uniform(-30, 5), rng.uniform(-20, 20), rng.uniform(-20, 20)
        for eq in (PAINLEVE_I, PAINLEVE_II, TOY_MODEL):
            # float in, float out: a complex result would turn the whole
            # real-axis sweep complex again
            for component in eq.rhs(t, y, yp):
                assert type(component) is float
        # odd parity of the second equation's right side in (y, y')
        assert PAINLEVE_II.rhs(t, -y, -yp) == tuple(-c for c in PAINLEVE_II.rhs(t, y, yp))


def test_asymptotic_branch():
    assert branch_curve(PAINLEVE_I, -6.0) == pytest.approx(1.0)
    assert branch_curve(PAINLEVE_I, -24.0) == pytest.approx(2.0)
    assert branch_curve(PAINLEVE_II, -2.0) == pytest.approx(1.0)
    ts = np.linspace(-50, -0.1, 23)
    assert np.array_equal(branch_curve(PAINLEVE_I, ts), np.sqrt(-ts / 6.0))
    assert np.isnan(branch_curve(PAINLEVE_I, np.array([0.0, 1.0]))).all()
    with pytest.raises(ValueError):
        branch_curve(TOY_MODEL, -1.0)


def _series_residual(eq, t, s, h=1e-3):
    # y'' from the series' own y' by a central difference, against the ODE
    y, yp, _, _ = eq.separatrix[Direction.NEGATIVE_T](t, s)
    yp_plus = eq.separatrix[Direction.NEGATIVE_T](t + h, s)[1]
    yp_minus = eq.separatrix[Direction.NEGATIVE_T](t - h, s)[1]
    return (yp_plus - yp_minus) / (2.0 * h) - eq.rhs(t, y, yp)[1]


@pytest.mark.parametrize(
    "eq,branches,order",
    # the omitted terms are x^-7 (P-I) and x^-11/2 (P-II), x = -t, so the
    # residuals fall like x^-13/2 and x^-9/2
    [(PAINLEVE_I, (1.0,), 6.5), (PAINLEVE_II, (1.0, -1.0), 4.5)],
    ids=["p1", "p2"],
)
def test_separatrix_series_residual(eq, branches, order):
    x = np.array([6.0, 8.0, 10.0, 14.0, 20.0])
    for s in branches:
        res = np.array([_series_residual(eq, -xi, s) for xi in x])
        slope = np.polyfit(np.log(x), np.log(np.abs(res)), 1)[0]
        assert abs(slope + order) < 0.02
        assert np.ptp(res * x**order) < 1e-2 * np.abs(res * x**order).max()


@pytest.mark.parametrize("eq,direction,s", [
    (PAINLEVE_I, Direction.NEGATIVE_T, 1.0),
    (PAINLEVE_II, Direction.NEGATIVE_T, 1.0),
    (PAINLEVE_II, Direction.NEGATIVE_T, -1.0),
    (PAINLEVE_II, Direction.POSITIVE_T, 1.0),
])
def test_separatrix_series_derivatives(eq, direction, s):
    # y' is dy/dt of the series, V the linearised potential dy''/dy on it and
    # V_t its t-derivative
    series = eq.separatrix[direction]
    h = 1e-4
    for t in (6.0, 9.0, 15.0):
        t *= direction.sign
        y, yp, v, v_t = series(t, s)
        plus, minus = series(t + h, s), series(t - h, s)
        assert (plus[0] - minus[0]) / (2 * h) == pytest.approx(yp, abs=1e-8)
        assert (plus[2] - minus[2]) / (2 * h) == pytest.approx(v_t, abs=1e-7)
        dv = (eq.rhs(t, y + h, yp)[1] - eq.rhs(t, y - h, yp)[1]) / (2 * h)
        assert dv == pytest.approx(v, abs=1e-6)
        assert v > 0.0
    assert TOY_MODEL.separatrix == {}


def test_energy_closed_forms():
    b, c = 1.7, -0.9
    assert energy(PAINLEVE_I, 0.0, b) == pytest.approx(b * b / 2)
    assert energy(PAINLEVE_I, c, 0.0) == pytest.approx(-2 * c**3)
    assert energy(PAINLEVE_II, c, 0.0) == pytest.approx(-(c**4) / 2)
    with pytest.raises(ValueError):
        energy(TOY_MODEL, 0.1, 0.2)


def test_fluctuation_rejects_toy():
    traj = integrate(TOY_MODEL, InitialData(0.3), Direction.POSITIVE_T,
                     IntegrationConfig(t_horizon=5.0))
    with pytest.raises(ValueError):
        fluctuation_integral(TOY_MODEL, traj)


def _defect(eq, traj):
    I = fluctuation_integral(eq, traj)
    rt = traj.real_t()
    ry, ryp = traj.real_y(), traj.real_yp()
    H = energy(eq, ry, ryp)
    return rt, ry, ryp, H - H[0] - I


def test_energy_identity_smooth():
    # pole-free stretch: the identity holds to 10 * rel_tol on the H scale
    cfg = IntegrationConfig(t_horizon=-20.0)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.NEGATIVE_T, cfg)
    assert not traj.poles
    _, ry, _, defect = _defect(PAINLEVE_I, traj)
    H_scale = max(1.0, np.abs(energy(PAINLEVE_I, ry, traj.real_yp())).max())
    assert np.abs(defect).max() <= 10.0 * cfg.rel_tol * H_scale


@pytest.mark.parametrize(
    "eq,init",
    [
        (PAINLEVE_I, InitialData(0.0, 2.504031103)),
        (PAINLEVE_II, InitialData(0.0, 1.028605106)),
    ],
)
def test_energy_identity_through_detours(eq, init):
    # Crossing poles, the identity holds to 10 * rel_tol times the path's
    # H-sensitivity scale |dH/dy| |y| + |dH/dy'| |y'| (absolute accuracy of H
    # near a pole is limited by the state's relative accuracy there).
    cfg = IntegrationConfig(t_horizon=-12.0)
    traj = integrate(eq, init, Direction.NEGATIVE_T, cfg)
    assert traj.poles
    _, ry, ryp, defect = _defect(eq, traj)
    if eq is PAINLEVE_I:
        sens = 6.0 * np.abs(ry) ** 3 + ryp**2
    else:
        sens = 2.0 * np.abs(ry) ** 4 + ryp**2
    bound = 10.0 * cfg.rel_tol * max(1.0, sens.max())
    assert np.abs(defect).max() <= bound


def test_fluctuation_smooth_at_critical_slope():
    # At a critical slope the fluctuation integral varies smoothly past the
    # turning point (the integrand t y' keeps one sign on the branch, so
    # sampled toward -infinity the increments are all negative), while a
    # mid-interval slope keeps oscillating.
    cfg = IntegrationConfig(t_horizon=-7.8, max_step=0.1, rel_tol=1e-12, abs_tol=1e-14)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 1.851854034), Direction.NEGATIVE_T, cfg)
    assert not traj.poles
    I = fluctuation_integral(PAINLEVE_I, traj)
    rt = traj.real_t()
    sel = (rt <= -6.2) & (rt >= -7.7)
    dI = np.diff(I[sel])
    assert (dI < 0).all()

    cfg = IntegrationConfig(t_horizon=-9.0, max_step=0.1)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg)
    I = fluctuation_integral(PAINLEVE_I, traj)
    rt = traj.real_t()
    sel = (rt <= -3.0) & (rt >= -8.7)
    flips = np.count_nonzero(np.diff(np.sign(np.diff(I[sel]))))
    assert flips >= 3


def _hermite_loop(eq, traj):
    # Reference: the per-sample running sum of the two-point quintic Hermite
    # rule, one step at a time in complex scalars.
    ts, ys, yps = traj.t, traj.y, traj.yp
    acc = 0j
    out = [0.0]
    g0, gp0, gpp0 = eq.fluct_jet(ts[0], ys[0], yps[0])
    for i in range(1, len(ts)):
        g1, gp1, gpp1 = eq.fluct_jet(ts[i], ys[i], yps[i])
        h = ts[i] - ts[i - 1]
        acc += 0.5 * h * (g0 + g1) - h * h / 10.0 * (gp1 - gp0) + h * h * h / 120.0 * (gpp0 + gpp1)
        g0, gp0, gpp0 = g1, gp1, gpp1
        out.append(acc.real)
    return np.array(out)[traj.real_indices()]


@pytest.mark.parametrize(
    "eq,slope,keep",
    [
        (PAINLEVE_I, 2.504031103, None),   # cascade with detours
        (PAINLEVE_II, 1.5, None),          # a block boundary falls on a detour arc
        (PAINLEVE_I, 2.504031103, 1),
        (PAINLEVE_I, 2.504031103, 2),
    ],
    ids=["p1-cascade", "p2-past-block", "one-sample", "two-samples"],
)
def test_fluctuation_matches_per_sample_loop(eq, slope, keep):
    traj = integrate(eq, InitialData(0.0, slope), Direction.NEGATIVE_T,
                     IntegrationConfig(t_horizon=-12.0))
    assert traj.poles and len(traj.t) > _FLUCT_BLOCK
    if eq is PAINLEVE_II:
        assert traj.t[_FLUCT_BLOCK].imag != 0.0
    if keep is not None:
        traj = dataclasses.replace(traj, t=traj.t[:keep], y=traj.y[:keep], yp=traj.yp[:keep])
    I = fluctuation_integral(eq, traj)
    ref = _hermite_loop(eq, traj)
    assert I.shape == ref.shape == traj.real_indices().shape
    assert np.abs(I - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_fluctuation_zero_length():
    cfg = IntegrationConfig(t_horizon=-20.0)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.NEGATIVE_T, cfg)
    I = fluctuation_integral(PAINLEVE_I, traj)
    assert I[0] == 0.0

