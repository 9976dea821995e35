
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


def test_equation_singularity_structure():
    assert PAINLEVE_I.pole_order == 2 and not PAINLEVE_I.first_order
    assert PAINLEVE_II.pole_order == 1 and not PAINLEVE_II.first_order
    assert TOY_MODEL.pole_order == 0 and TOY_MODEL.first_order
    assert equation_from_name("p2") is PAINLEVE_II
    with pytest.raises(ValueError):
        equation_from_name("p7")


@pytest.mark.parametrize("eq", [PAINLEVE_I, PAINLEVE_II, TOY_MODEL], ids=["p1", "p2", "toy"])
def test_each_direction_has_a_horizon_a_separatrix_and_a_mode(eq):
    # an equation runs in the directions of its horizons; each has its
    # separatrix, and every search mode runs in one of them
    directions = set(eq.horizons)
    assert directions == set(eq.separatrix) == {spec.direction for spec in eq.modes.values()}
    assert all(d.sign * eq.horizons[d] > 0.0 for d in directions)


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
    # the triple (y', y'', dH/dt) the integrator runs; at y' = 0 every
    # component vanishes here (for the toy model the first component is
    # y' = cos(pi t y))
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
        # the second equation's (y', y'') is odd in (y, y'), its dH/dt = t y y' even
        yp_, ypp, dh = PAINLEVE_II.rhs(t, y, yp)
        assert PAINLEVE_II.rhs(t, -y, -yp) == (-yp_, -ypp, dh)
        # the third component is the rate of the energy along a solution:
        # dH/dt = H_y y' + H_y' y''
        for eq in (PAINLEVE_I, PAINLEVE_II):
            yp_, ypp, dh = eq.rhs(t, y, yp)
            h = 1e-6 * max(1.0, abs(y))
            h_y = (eq.hamiltonian(y + h, yp) - eq.hamiltonian(y - h, yp)) / (2 * h)
            assert dh == pytest.approx(h_y * yp_ + yp * ypp, rel=1e-6, abs=1e-6 * abs(yp * ypp))


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
    y, yp, _, _ = eq.separatrix[Direction.NEGATIVE_T](t, t, s)
    yp_plus = eq.separatrix[Direction.NEGATIVE_T](t + h, t, s)[1]
    yp_minus = eq.separatrix[Direction.NEGATIVE_T](t - h, t, s)[1]
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
        y, yp, v, v_t = series(t, t, s)
        plus, minus = series(t + h, t, s), series(t - h, t, s)
        assert (plus[0] - minus[0]) / (2 * h) == pytest.approx(yp, abs=1e-8)
        assert (plus[2] - minus[2]) / (2 * h) == pytest.approx(v_t, abs=1e-7)
        dv = (eq.rhs(t, y + h, yp)[1] - eq.rhs(t, y - h, yp)[1]) / (2 * h)
        assert dv == pytest.approx(v, abs=1e-6)
        assert v > 0.0


def test_toy_separatrix_levels():
    # the toy model's separatrices track the unstable levels t y = c = 2k - 1/2
    # nearest the given point, and far out they follow the series
    # c - c/(pi t^2) + 3 c/(pi^2 t^4) of t y, whose next term is O(c^3 / t^6)
    sep = TOY_MODEL.separatrix[Direction.POSITIVE_T]
    for t_near, y_near, c in ((3.0, 0.8, 1.5), (3.0, 0.85, 3.5), (12.0, 8.3, 99.5)):
        for t in (30.0, 40.0):
            series = c - c / (np.pi * t**2) + 3.0 * c / (np.pi * t**2) ** 2
            assert t * sep(t, t_near, y_near)[0] == pytest.approx(series, abs=c**3 / t**6)
    # nearer in, the curve still solves y' = cos(pi t y), with the repelling
    # rate V = dy'/dy = -pi t sin(pi t y) and its t-derivative V_t
    h = 1e-4
    for t, c in ((2.0, 1.5), (6.0, 5.5), (12.0, 99.5)):
        y, yp, v, v_t = sep(t, t, c / t)
        plus, minus = sep(t + h, t, c / t), sep(t - h, t, c / t)
        assert yp == np.cos(np.pi * t * y)
        assert (plus[0] - minus[0]) / (2 * h) == pytest.approx(yp, abs=1e-7)
        assert v == pytest.approx(-np.pi * t * np.sin(np.pi * t * y), rel=1e-15)
        assert v > 2.0 * t
        assert (plus[2] - minus[2]) / (2 * h) == pytest.approx(v_t, rel=1e-5)


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
    rt = traj.t
    ry, ryp = traj.y, traj.yp
    H = energy(eq, ry, ryp)
    return rt, ry, ryp, H - H[0] - I


def test_energy_identity_smooth():
    # pole-free stretch: the identity holds to 10 * rel_tol on the H scale
    cfg = IntegrationConfig(t_horizon=-20.0)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.NEGATIVE_T, cfg)
    assert not traj.poles
    _, ry, _, defect = _defect(PAINLEVE_I, traj)
    H_scale = max(1.0, np.abs(energy(PAINLEVE_I, ry, traj.yp)).max())
    assert np.abs(defect).max() <= 10.0 * cfg.rel_tol * H_scale


def _h_scale(eq, ry, ryp):
    # The path's H-sensitivity scale |dH/dy| |y| + |dH/dy'| |y'|: the absolute
    # accuracy of H near a pole is limited by the state's relative accuracy.
    if eq is PAINLEVE_I:
        sens = 6.0 * np.abs(ry) ** 3 + ryp**2
    else:
        sens = 2.0 * np.abs(ry) ** 4 + ryp**2
    return max(1.0, sens.max())


@pytest.mark.parametrize(
    "eq,init",
    [
        (PAINLEVE_I, InitialData(0.0, 2.504031103)),
        (PAINLEVE_II, InitialData(0.0, 1.028605106)),
    ],
)
def test_energy_identity_through_detours(eq, init):
    # Crossing poles, the identity holds to 10 * rel_tol on the H scale.
    cfg = IntegrationConfig(t_horizon=-12.0)
    traj = integrate(eq, init, Direction.NEGATIVE_T, cfg)
    assert traj.poles
    _, ry, ryp, defect = _defect(eq, traj)
    assert np.abs(defect).max() <= 10.0 * cfg.rel_tol * _h_scale(eq, ry, ryp)


@pytest.mark.parametrize(
    "eq,mode,lo,hi,budget",
    # the scan ranges of the session tables; P-II's simple poles amplify
    # traversal noise harder, so its budget is wider
    [
        (PAINLEVE_I, "slope", 0.2, 9.0, 10.0),
        (PAINLEVE_I, "value", -3.0, -0.1, 10.0),
        (PAINLEVE_II, "slope", 0.1, 8.8, 40.0),
    ],
    ids=["p1-slope", "p1-value", "p2-slope"],
)
def test_energy_identity_random_starts(eq, mode, lo, hi, budget):
    # H(x) = H(0) + I(x) at every real sample of runs at the default
    # tolerances from random starts to the default horizon, pole cascades
    # and pole-free runs alike.
    rng = np.random.default_rng(20261018)
    cfg = IntegrationConfig()
    for x in rng.uniform(lo, hi, size=8):
        init = InitialData(0.0, x) if mode == "slope" else InitialData(x, 0.0)
        traj = integrate(eq, init, Direction.NEGATIVE_T, cfg)
        assert traj.stopped_by == "horizon"
        _, ry, ryp, defect = _defect(eq, traj)
        assert np.abs(defect).max() <= budget * cfg.rel_tol * _h_scale(eq, ry, ryp), x


def test_fluctuation_smooth_at_critical_slope():
    # At a critical slope the fluctuation integral varies smoothly past the
    # turning point (the integrand t y' keeps one sign on the branch, so
    # sampled toward -infinity the increments are all negative), while a
    # mid-interval slope keeps oscillating.
    cfg = IntegrationConfig(t_horizon=-7.8, rel_tol=1e-12)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 1.851854034), Direction.NEGATIVE_T, cfg)
    assert not traj.poles
    I = fluctuation_integral(PAINLEVE_I, traj)
    rt = traj.t
    sel = (rt <= -6.2) & (rt >= -7.7)
    dI = np.diff(I[sel])
    assert (dI < 0).all()

    cfg = IntegrationConfig(t_horizon=-9.0)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg)
    I = fluctuation_integral(PAINLEVE_I, traj)
    rt = traj.t
    sel = (rt <= -3.0) & (rt >= -8.7)
    flips = np.count_nonzero(np.diff(np.sign(np.diff(I[sel]))))
    assert flips >= 3


def test_fluctuation_zero_length():
    cfg = IntegrationConfig(t_horizon=-20.0)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.NEGATIVE_T, cfg)
    I = fluctuation_integral(PAINLEVE_I, traj)
    assert I[0] == 0.0

