import collections
import dataclasses
import math

import numpy as np
import pytest

from painleve import (
    CrossingError,
    DegenerateDerivativeError,
    Direction,
    InitialData,
    IntegrationConfig,
    IntegrationError,
    PAINLEVE_I,
    PAINLEVE_II,
    TOY_MODEL,
    branch_curve,
    estimate_pole,
    integrate,
)
from painleve import integrator
from painleve.integrator import _advance, _call_step, _laurent_cross, _step_for

from conftest import arc_exit


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(rel_tol=0.0)
    cfg = IntegrationConfig()
    assert cfg.resolved_horizon(PAINLEVE_I, Direction.NEGATIVE_T) == -60.0
    assert cfg.resolved_horizon(PAINLEVE_II, Direction.POSITIVE_T) == 40.0
    assert cfg.resolved_horizon(TOY_MODEL, Direction.POSITIVE_T) == 50.0


@pytest.mark.parametrize("field", ["rel_tol", "t_horizon"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_settings(field, bad):
    # a NaN passes every comparison, so without the finiteness check a NaN
    # horizon never ends the toy run and sends P-II's positive run toward
    # negative t
    with pytest.raises(ValueError, match=f"{field} = .* must be"):
        IntegrationConfig(**{field: bad})


@pytest.mark.parametrize("bad", [math.nan, 2.5, -1, True, "3"], ids=["nan", "fraction", "negative", "bool", "str"])
def test_config_rejects_a_non_integer_pole_cap(bad):
    # unchecked, a NaN cap never stops the run (P-II from y0 = 3 crossed 38
    # poles to the horizon) and a cap of 2.5 stops it after 3 poles
    with pytest.raises(ValueError, match="max_poles = .* must be a non-negative int"):
        IntegrationConfig(max_poles=bad)


def _tableau():
    """The integrator's DOP853 tableau as arrays over stages 1..12: nodes c,
    stage matrix a, weights b, 5th-order error weights e5 and 3rd-order
    error weights e3 = b - bhh."""
    a = np.zeros((12, 12))
    for i, row in enumerate(integrator._A):
        a[i, :len(row)] = row
    b = np.array(integrator._B)
    return np.array(integrator._C), a, b, np.array(integrator._ER), b - np.array(integrator._BHH)


def test_dop853_tableau_matches_scipy():
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    n = coeffs.N_STAGES
    c, a, b, e5, e3 = _tableau()
    assert np.array_equal(c, coeffs.C[:n])
    assert np.array_equal(a, coeffs.A[:n, :n])
    assert np.array_equal(b, coeffs.B)
    # the 13th (first-same-as-last) stage carries no error weight
    assert np.array_equal(e5, coeffs.E5[:n]) and coeffs.E5[n] == 0.0
    assert np.array_equal(e3, coeffs.E3[:n]) and coeffs.E3[n] == 0.0


def test_step_follows_the_tableau():
    # the call-based step is the generic explicit Runge-Kutta step of the
    # tableau, for the state and the carried quadrature alike
    c, a, b, _, _ = _tableau()
    f = PAINLEVE_II.rhs
    s, u, v, h = -3.0, 0.7, -1.3, 0.21
    k = []
    for i in range(12):
        ui = u + h * sum(a[i, j] * k[j][0] for j in range(i))
        vi = v + h * sum(a[i, j] * k[j][1] for j in range(i))
        k.append(f(s + c[i] * h, ui, vi))
    ref = [sum(b[j] * k[j][m] for j in range(12)) for m in range(3)]
    un, vn, dw, _ = _call_step(f)(s, u, v, h, k[0], 1e-10, 1e-12)
    assert un == pytest.approx(u + h * ref[0], rel=1e-14)
    assert vn == pytest.approx(v + h * ref[1], rel=1e-14)
    assert dw == pytest.approx(ref[2], rel=1e-14)
    # and each equation's generated step, its right-hand side written into
    # the stages, returns exactly what the call-based step returns with
    # eq.rhs, error norm included; the toy model's steps u alone
    rng = np.random.default_rng(23)
    for eq in (PAINLEVE_I, PAINLEVE_II, TOY_MODEL):
        generated, called = _step_for(eq.rhs_source), _call_step(eq.rhs)
        for _ in range(50):
            s, u = rng.uniform(-20.0, 20.0), rng.uniform(-3.0, 3.0)
            v = 0.0 if eq.first_order else rng.uniform(-5.0, 5.0)
            k1 = eq.rhs(s, u, v)
            for h in (rng.uniform(1e-3, 0.5), -rng.uniform(1e-3, 0.5)):
                for rtol in (1e-8, 1e-12):
                    out = generated(s, u, v, h, k1, rtol, 1e-2 * rtol)
                    assert out == called(s, u, v, h, k1, rtol, 1e-2 * rtol)
                    assert all(map(math.isfinite, out))


def test_step_is_eighth_order():
    # fixed steps on y'' = -y with the quadrature w' = y^2 carried: halving
    # h cuts the error at t = 4 about 2^8-fold, in the state and in w
    f = lambda t, y, yp: (yp, -y, y * y)
    step = _call_step(f)

    def errors(n):
        h, s, u, v, w = 4.0 / n, 0.0, 1.0, 0.0, 0.0
        for _ in range(n):
            u, v, dw, _ = step(s, u, v, h, f(s, u, v), 1.0, 1.0)
            s, w = s + h, w + h * dw
        return abs(u - math.cos(4.0)), abs(w - (2.0 + math.sin(8.0) / 4.0))

    coarse, fine = errors(8), errors(16)
    for e_coarse, e_fine in zip(coarse, fine):
        assert 7.5 <= math.log2(e_coarse / e_fine) <= 8.5


@pytest.mark.parametrize("eq, init, direction, horizon", [
    (PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, -20.0),
    (PAINLEVE_II, InitialData(2.0, 0.0), Direction.POSITIVE_T, 10.0),
    (TOY_MODEL, InitialData(1.7), Direction.POSITIVE_T, 20.0),
], ids=["p1-cascade", "p2-pos", "toy"])
def test_generated_step_integrates_as_the_call_based_step(monkeypatch, eq, init, direction, horizon):
    # integrate with each equation's generated step, then with the
    # call-based step patched in: the runs are identical, sample for sample
    cfg = IntegrationConfig(t_horizon=horizon)
    generated = integrate(eq, init, direction, cfg)
    called = _call_step(eq.rhs)
    monkeypatch.setattr(integrator, "_step_for", lambda _source: called)
    ref = integrate(eq, init, direction, cfg)
    for name in ("t", "y", "yp", "fluct"):
        got, want = getattr(generated, name), getattr(ref, name)
        assert (got is None and want is None) or np.array_equal(got, want), name
    assert generated.poles == ref.poles
    assert (generated.terminal_t, generated.stopped_by) == (ref.terminal_t, ref.stopped_by)
    assert len(generated.poles) > 3 or eq is TOY_MODEL


@pytest.mark.parametrize("eq, init, direction", [
    (PAINLEVE_I, InitialData(0.0, math.nan), Direction.NEGATIVE_T),
    (PAINLEVE_I, InitialData(math.inf, 1.0), Direction.NEGATIVE_T),
    (PAINLEVE_II, InitialData(math.nan, 0.0), Direction.POSITIVE_T),
    (PAINLEVE_II, InitialData(0.0, -math.inf), Direction.NEGATIVE_T),
    (TOY_MODEL, InitialData(math.inf), Direction.POSITIVE_T),
    (TOY_MODEL, InitialData(math.nan), Direction.POSITIVE_T),
], ids=["p1-slope-nan", "p1-y0-inf", "p2-y0-nan", "p2-slope-inf", "toy-inf", "toy-nan"])
def test_integrate_rejects_non_finite_initial_data(eq, init, direction):
    with pytest.raises(ValueError, match="must be finite"):
        integrate(eq, init, direction, IntegrationConfig(t_horizon=direction.sign))


def test_toy_ignores_its_slope():
    # the first-order toy model has no slope, so a NaN there is not data
    traj = integrate(TOY_MODEL, InitialData(1.0, math.nan), Direction.POSITIVE_T,
                     IntegrationConfig(t_horizon=1.0))
    assert traj.stopped_by == "horizon" and np.isfinite(traj.y).all()


@pytest.mark.parametrize("eq", [PAINLEVE_I, PAINLEVE_II, TOY_MODEL], ids=["p1", "p2", "toy"])
def test_step_rejects_a_nan_state(eq):
    # a NaN error norm must reject the step, not read as 0 and accept it
    # with h grown tenfold, so a march from a NaN state underflows in place
    step = _step_for(eq.rhs_source)
    u, v = math.nan, 0.0 if eq.first_order else 1.0
    err = step(1.0, u, v, 1e-3, eq.rhs(1.0, u, v), 1e-10, 1e-12)[-1]
    assert not err <= 1.0
    s, _, _, _, _, _, token = _advance(step, eq.rhs, 1.0, u, v, 0.0, 2.0, IntegrationConfig(),
                                       lambda *_: pytest.fail("accepted a step from a NaN state"))
    assert (s, token) == (1.0, "step-underflow")


def test_direction_restrictions():
    with pytest.raises(ValueError):
        integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.POSITIVE_T)
    with pytest.raises(ValueError):
        integrate(TOY_MODEL, InitialData(0.5), Direction.NEGATIVE_T)
    # a horizon on the wrong side of t = 0 for the direction is refused too
    for eq, direction, horizon in [(PAINLEVE_I, Direction.NEGATIVE_T, 5.0),
                                   (PAINLEVE_II, Direction.POSITIVE_T, -5.0)]:
        with pytest.raises(ValueError, match=f"horizon {horizon} is on the wrong side of t = 0"):
            integrate(eq, InitialData(0.0, 1.0), direction, IntegrationConfig(t_horizon=horizon))


def test_estimate_pole_exact_on_laurent_data():
    # synthetic states sampled from exact leading Laurent terms
    for t in (0.0, 2.0, 4.9):
        d = t - 5.0
        t0 = estimate_pole(PAINLEVE_I, t, d**-2, -2.0 * d**-3)
        assert abs(t0 - 5.0) <= 1e-12 * 5.0
    for t in (0.0, 2.5):
        d = t - 3.0
        t0 = estimate_pole(PAINLEVE_II, t, 1.0 / d, -1.0 / d**2)
        assert abs(t0 - 3.0) <= 1e-12 * 3.0


def test_estimate_pole_degenerate():
    with pytest.raises(DegenerateDerivativeError):
        estimate_pole(PAINLEVE_I, 0.0, 1e6, 0.0)
    with pytest.raises(ValueError):
        estimate_pole(TOY_MODEL, 0.0, 1.0, 1.0)


def test_estimator_location_converges_with_threshold(monkeypatch):
    # shrinking the engagement threshold tenfold moves the estimated first
    # pole location by far less than one percent of the detour radius
    locs = {}
    cfg = IntegrationConfig(t_horizon=-4.0)
    for ds in (15.0, 150.0):
        monkeypatch.setattr(integrator, "_DETOUR_START", ds)
        traj = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg)
        locs[ds] = (traj.poles[0].location, traj.poles[0].detour_radius)
    drift = abs(locs[15.0][0] - locs[150.0][0])
    assert drift <= 1e-2 * locs[15.0][1]


# The README P-I run and P-II from slope 1.5: pole cascades to t = -40.
_CASCADES = [
    (PAINLEVE_I, InitialData(0.0, 2.504031103)),
    (PAINLEVE_II, InitialData(0.0, 1.5)),
]


@pytest.mark.parametrize("eq,init", _CASCADES, ids=["p1", "p2"])
def test_crossing_independent_of_trigger_depth(eq, init, monkeypatch):
    # the sweep walks to each detour circle from the last sample before it,
    # so how deep the trigger sits changes the pole estimate only, and the
    # continuation past the poles not at all
    ends = []
    for ds in (15.0, 50.0, 150.0):
        monkeypatch.setattr(integrator, "_DETOUR_START", ds)
        traj = integrate(eq, init, Direction.NEGATIVE_T, IntegrationConfig(t_horizon=-20.0))
        ends.append(traj.y[-1])
    assert max(ends) - min(ends) <= 1e-8


@pytest.mark.parametrize("eq,init", _CASCADES, ids=["p1", "p2"])
def test_crossing_accuracy_through_cascade(eq, init):
    # y(-40) at the default tolerance lies within 2e-6 of a run at 1e-13
    run = integrate(eq, init, Direction.NEGATIVE_T, IntegrationConfig(t_horizon=-40.0))
    ref = integrate(eq, init, Direction.NEGATIVE_T,
                    IntegrationConfig(t_horizon=-40.0, rel_tol=1e-13))
    assert len(run.poles) == len(ref.poles) > 20
    assert abs(run.y[-1] - ref.y[-1]) <= 2e-6


@pytest.mark.parametrize("eq,init", _CASCADES, ids=["p1", "p2"])
def test_energy_identity_through_cascade(eq, init):
    # the series carries I across each pole independently of H, so
    # H(t) - H(0) = I(t) checks every crossing as well as the sweep
    cfg = IntegrationConfig(t_horizon=-40.0)
    traj = integrate(eq, init, Direction.NEGATIVE_T, cfg)
    assert len(traj.poles) > 20
    H = eq.hamiltonian(traj.y, traj.yp)
    scale = max(1.0, np.abs(H).max())
    assert np.abs(H - H[0] - traj.fluct).max() <= 10.0 * cfg.rel_tol * scale


def test_p2_cascades_reach_default_horizon():
    # between the poles of deep P-II cascades |y| stays above half the
    # trigger; the detour re-arms once |y| rises again after an exit, so
    # the run meets every pole armed and reaches t = -60
    rng = np.random.default_rng(20261019)
    for x in [3.4591, *rng.uniform(0.1, 8.8, size=6)]:
        traj = integrate(PAINLEVE_II, InitialData(0.0, x), Direction.NEGATIVE_T)
        assert traj.stopped_by == "horizon" and traj.terminal_t <= -60.0, x


def _series(eq, t0, h, sign, n, d):
    """y, y' and y'' of the first n terms of the Laurent family at d = t - t0."""
    p = eq.pole_order
    a = eq.laurent(t0, h, sign, n)[0]
    return tuple(sum(a[k] * math.prod(range(k - p - j + 1, k - p + 1)) * d ** (k - p - j) for k in range(n))
                 for j in range(3))


_FAMILIES = [(PAINLEVE_I, 1.0), (PAINLEVE_II, 1.0), (PAINLEVE_II, -1.0)]


@pytest.mark.parametrize("eq,sign", _FAMILIES, ids=["p1", "p2+", "p2-"])
def test_laurent_series_solves_the_equation(eq, sign):
    # on a circle of complex d, |d| = 0.1, the 30-term series satisfies
    # y'' = rhs to rounding, and q holds the series of Q with dH/dt = t Q'
    t0, h, n = -4.3, 0.37, 30
    q = eq.laurent_q(eq.laurent(t0, h, sign, n)[0])
    assert q[1] == 0.0
    for phi in np.linspace(0.1, 2.0 * math.pi, 7):
        d = 0.1 * complex(math.cos(phi), math.sin(phi))
        y, yp, ypp = _series(eq, t0, h, sign, n, d)
        rhs = eq.rhs(t0 + d, y, yp)
        assert abs(ypp - rhs[1]) <= 1e-12 * abs(ypp)
        # dQ/dt = dH/dt / t, with Q = sum_k q_k d^(k-2)
        dq = sum((k - 2) * q[k] * d ** (k - 3) for k in range(n))
        assert abs(dq * (t0 + d) - rhs[2]) <= 1e-12 * abs(rhs[2])


def _family_entry(eq, t0, h, sign, d):
    """Entry sample (t0 + d, y, y', I = 0) on a known member of the family."""
    y, yp, _ = _series(eq, t0, h, sign, 40, d)
    return (t0 + d, y, yp, 0.0)


@pytest.mark.parametrize("eq,sign", _FAMILIES, ids=["p1", "p2+", "p2-"])
@pytest.mark.parametrize("d", [0.2, -0.2], ids=["neg", "pos"])
def test_laurent_fit_recovers_the_pole(eq, sign, d):
    # from an entry built on a known (t0, h), started 1e-3 off, the fit
    # finds t0 and h again; crossing back from the exit returns the entry
    t0, h = -4.3, 0.37
    entry = _family_entry(eq, t0, h, sign, d)
    cfg = IntegrationConfig(rel_tol=1e-13)
    exit_, t0_fit, h_fit = _laurent_cross(eq, entry, t0 + 1e-3, cfg)
    assert abs(t0_fit - t0) <= 1e-13
    assert abs(h_fit - h) <= 1e-9
    assert exit_[0] == pytest.approx(t0 - d, abs=1e-14)
    back, t0_back, _ = _laurent_cross(eq, exit_, t0, cfg)
    assert abs(t0_back - t0) <= 1e-13
    assert back[0] == pytest.approx(entry[0], abs=1e-14)
    for u, v in zip(back[1:3], entry[1:3]):
        assert abs(u - v) <= 1e-12 * abs(v)
    # I returns to 0 against the energy change across the crossing
    assert abs(back[3]) <= 1e-12 * abs(exit_[3])


@pytest.mark.parametrize("eq,sign", _FAMILIES, ids=["p1", "p2+", "p2-"])
@pytest.mark.parametrize("d", [0.2, -0.2], ids=["neg", "pos"])
def test_laurent_exit_equals_a_fresh_build(eq, sign, d):
    # the crossing applies its last Newton step to the coefficients instead
    # of building the series again; its exit equals the exit of a series
    # built afresh, at the same length, at the fitted (t0, h)
    lengths = []

    def recording(t0, h, sign, n):
        lengths.append(n)
        return eq.laurent(t0, h, sign, n)

    entry = _family_entry(eq, -4.3, 0.37, sign, d)
    t_e, _, _, w_e = entry
    exit_, t0, h = _laurent_cross(dataclasses.replace(eq, laurent=recording), entry, -4.3 + 1e-3,
                                  IntegrationConfig(rel_tol=1e-13))
    n = lengths[-1]
    q = eq.laurent_q(eq.laurent(t0, h, sign, n)[0])
    d_x = -(t_e - t0)
    y, yp, _ = _series(eq, t0, h, sign, n, d_x)

    def q_and_int(dd):  # Q = sum_k q_k d^(k-2) and its antiderivative
        return (sum(q[k] * dd ** (k - 2) for k in range(n)),
                sum(q[k] * dd ** (k - 1) / (k - 1) for k in range(n) if k != 1))

    (q_e, int_e), (q_x, int_x) = q_and_int(t_e - t0), q_and_int(d_x)
    w = w_e + (t0 + d_x) * q_x - t_e * q_e - (int_x - int_e)
    assert exit_[0] == t0 + d_x
    for u, v in zip(exit_[1:], (y, yp, w)):
        assert abs(u - v) <= 1e-14 * abs(v)


def test_crossings_take_about_one_full_length_build():
    # two Newton steps on a short series (8 terms past h) start each fit, so
    # the full-length series is built 1.5 times per crossing at most, on
    # average over the README cascades; P-I's series also grows its length
    # on most of them, one build per growth
    crossings = full = 0
    for eq, init in _CASCADES:
        short = 2 * eq.pole_order + 2 + integrator._PREFIT_TERMS
        builds = collections.Counter()

        def counting(t0, h, sign, n, eq=eq, builds=builds):
            builds["short" if n == short else "full"] += 1
            return eq.laurent(t0, h, sign, n)

        traj = integrate(dataclasses.replace(eq, laurent=counting), init, Direction.NEGATIVE_T,
                         IntegrationConfig(t_horizon=-40.0))
        assert len(traj.poles) > 20
        assert builds["short"] == 2 * len(traj.poles)
        crossings += len(traj.poles)
        full += builds["full"]
    assert full <= 1.5 * crossings


def test_crossing_failures_are_typed():
    # a start on the entry itself (d = 0) fails as a CrossingError, not as
    # the ZeroDivisionError of d^(-p)
    entry = _family_entry(PAINLEVE_I, -4.3, 0.37, 1.0, 0.2)
    with pytest.raises(CrossingError, match="broke down"):
        _laurent_cross(PAINLEVE_I, entry, -4.3 + 0.2, IntegrationConfig())


def _first_pole_entry(radius):
    """True sample (t, y, y', I = 0) on the detour circle of the first
    cascade pole of the slope-2.504031103 trajectory."""
    ref = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T,
                    IntegrationConfig(t_horizon=-4.0, rel_tol=1e-12))
    t0 = ref.poles[0].location
    # suppress pole handling for the prefix: it ends before the pole
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_DETOUR_START", 1e6)
        pre = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T,
                        IntegrationConfig(t_horizon=t0 + radius, rel_tol=1e-12))
    assert not pre.poles
    return t0, (t0 + radius, pre.y[-1], pre.yp[-1], 0.0)


def test_detour_radius_robustness():
    # crossing from half the radius (and walking the difference on the real
    # axis) reproduces the exit state to a few parts in 1e9
    cfg = IntegrationConfig(rel_tol=1e-11)
    r = 0.2
    t0, entry = _first_pole_entry(r)
    exit_full, _, _ = _laurent_cross(PAINLEVE_I, entry, t0, cfg)
    # the series' fluctuation integral is the energy change across the pole
    h_in, h_out = (PAINLEVE_I.hamiltonian(y, yp) for _, y, yp, _ in (entry, exit_full))
    assert abs(exit_full[3] - (h_out - h_in)) <= 1e-9 * abs(h_in)

    t0h, entry_h = _first_pole_entry(r / 2)
    exit_half, _, _ = _laurent_cross(PAINLEVE_I, entry_h, t0h, cfg)
    s, u, v, _, _, _, tok = _advance(_step_for(PAINLEVE_I.rhs_source), PAINLEVE_I.rhs, *exit_half,
                                     exit_full[0], cfg, lambda *a: None)
    assert tok is None
    assert abs(u - exit_full[1]) <= 1e-8 * abs(exit_full[1])
    assert abs(v - exit_full[2]) <= 1e-8 * abs(exit_full[2])


def test_circle_past_the_next_pole_raises(monkeypatch):
    # a circle that reaches past the next pole leaves the series' disc of
    # convergence: its terms stop decaying, and the crossing fails typed
    # instead of crossing two poles as one. The README run's first two
    # poles lie 2.3 apart.
    monkeypatch.setattr(integrator, "_pick_radius", lambda eq, t0, prev, boundary: 2.6)
    with pytest.raises(CrossingError, match="does not converge"):
        integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T,
                  IntegrationConfig(t_horizon=-12.0))


def test_detour_half_plane_conjugation():
    # arcs through the upper and the lower half plane, run from each detour
    # entry of the cascade, give identical real exits, and the Laurent
    # crossing's exit sample is that real exit
    cfg = IntegrationConfig(t_horizon=-12.0)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg)
    assert traj.poles
    for pole in traj.poles:
        i = pole.entry_index
        entry = (traj.t[i], traj.y[i], traj.yp[i], traj.fluct[i])
        up = arc_exit(PAINLEVE_I, entry, pole.location, 1)
        dn = arc_exit(PAINLEVE_I, entry, pole.location, -1)
        for u, d, x in zip(up, dn, (traj.y[i + 1], traj.yp[i + 1], traj.fluct[i + 1])):
            assert u.real == pytest.approx(d.real, rel=1e-6, abs=1e-8)
            assert u.imag == pytest.approx(-d.imag, abs=1e-8)
            assert u.real == pytest.approx(x, rel=1e-6, abs=1e-8)
    with pytest.raises(ValueError):
        arc_exit(PAINLEVE_I, entry, traj.poles[0].location, 0)


def _assert_in_order(traj):
    """t strictly ordered in the run's direction, and each crossing's entry
    strictly ahead of the previous exit, or of t = 0 for the first."""
    sign = traj.direction.sign
    assert (sign * np.diff(traj.t) > 0.0).all()
    boundary = 0.0
    for p in traj.poles:
        if p.entry_index is not None:  # a cap-terminating event has no entry
            assert sign * (traj.t[p.entry_index] - boundary) > 0.0
            boundary = traj.t[p.entry_index + 1]


def test_trajectory_structure_cascade():
    traj = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T,
                     IntegrationConfig(t_horizon=-20.0))
    assert traj.stopped_by == "horizon"
    locs = [p.location for p in traj.poles]
    assert all(b < a for a, b in zip(locs, locs[1:]))  # strictly advancing
    assert traj.equation.pole_order == 2
    # the arrays hold real-axis samples only
    assert traj.t.dtype == traj.y.dtype == traj.yp.dtype == traj.fluct.dtype == np.float64
    # a sample between consecutive poles
    for a, b in zip(locs, locs[1:]):
        assert ((traj.t < a) & (traj.t > b)).any()
    # a detour's entry and exit are consecutive samples, one radius either
    # side of the pole
    for p in traj.poles:
        assert traj.t[p.entry_index] == pytest.approx(p.location + p.detour_radius, abs=1e-12)
        assert traj.t[p.entry_index + 1] == pytest.approx(p.location - p.detour_radius, abs=1e-12)
    # t strictly monotone in the sweep direction, in both directions: a
    # positive-direction exit is stored once
    pos = integrate(PAINLEVE_II, InitialData(2.0, 0.0), Direction.POSITIVE_T, IntegrationConfig(t_horizon=10.0))
    assert len(pos.poles) == 6
    # a first pole 0.29 past t = 0: a circle of the clamped radius 0.3
    # would enter at t = -0.0073, behind the start
    near = integrate(PAINLEVE_II, InitialData(4.48, 0.0), Direction.POSITIVE_T, IntegrationConfig(t_horizon=2.0))
    assert near.stopped_by == "horizon" and near.poles[0].location == pytest.approx(0.2925, abs=1e-4)
    for run in (traj, pos, near):
        _assert_in_order(run)


def test_random_runs_stay_in_order():
    # random data of both equations, in each of their directions, keep
    # every returned trajectory in order; a typed failure is allowed
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    p2 = st.tuples(st.just(PAINLEVE_II), st.floats(-10.0, 10.0), st.floats(-5.0, 5.0),
                   st.sampled_from([Direction.NEGATIVE_T, Direction.POSITIVE_T]))
    # P-I over the ranges of the session tables' searches
    p1_slope = st.tuples(st.just(PAINLEVE_I), st.just(0.0), st.floats(0.2, 9.0), st.just(Direction.NEGATIVE_T))
    p1_value = st.tuples(st.just(PAINLEVE_I), st.floats(-3.0, -0.1), st.just(0.0), st.just(Direction.NEGATIVE_T))

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @hypothesis.given(st.one_of(p2, p1_slope, p1_value))
    def check(case):
        eq, y0, slope0, direction = case
        try:
            traj = integrate(eq, InitialData(y0, slope0), direction, IntegrationConfig(t_horizon=3.0 * direction.sign))
        except IntegrationError:
            return
        _assert_in_order(traj)

    check()


def test_pole_cap_truncates():
    cfg = IntegrationConfig(t_horizon=-20.0, max_poles=3)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, cfg)
    assert traj.stopped_by == "pole-cap"
    assert traj.truncated
    assert len(traj.poles) == 4 and traj.poles[-1].entry_index is None
    assert all(p.entry_index is not None for p in traj.poles[:-1])


def test_walk_underflow_keeps_terminal_t_on_the_data(monkeypatch):
    # a step underflow on the walk to the first circle entry ends the run
    # where the walk stopped, and that state is the last sample
    real = integrator._advance
    horizon = -40.0

    def walk_underflows(step, f, s0, u0, v0, w0, s1, *args, **kwargs):
        out = real(step, f, s0, u0, v0, w0, s1, *args, **kwargs)
        return out if s1 == horizon else (*out[:6], "step-underflow")

    monkeypatch.setattr(integrator, "_advance", walk_underflows)
    traj = integrate(PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T,
                     IntegrationConfig(t_horizon=horizon))
    assert traj.stopped_by == "step-underflow" and traj.truncated
    assert not traj.poles
    assert traj.terminal_t == traj.t[-1]
    assert np.all(np.diff(traj.t) < 0.0)


def test_until_stops_without_truncating():
    # until ends a run at the first accepted real-axis step at which it
    # holds; the run up to there is the full run's, and it is not truncated
    cases = [
        (TOY_MODEL, InitialData(2.0), Direction.POSITIVE_T, IntegrationConfig(rel_tol=1e-9),
         TOY_MODEL.settled),
        (PAINLEVE_I, InitialData(0.0, 2.504031103), Direction.NEGATIVE_T, IntegrationConfig(t_horizon=-20.0),
         lambda t, y, yp: t < -8.0),
    ]
    for eq, init, direction, cfg, until in cases:
        full = integrate(eq, init, direction, cfg)
        assert full.stopped_by == "horizon" and not full.truncated
        stopped = integrate(eq, init, direction, cfg, until=until)
        assert stopped.stopped_by == "settled" and not stopped.truncated
        n = len(stopped.t)
        assert n < len(full.t)
        assert np.array_equal(stopped.t, full.t[:n]) and np.array_equal(stopped.y, full.y[:n])
        assert [p.location for p in stopped.poles] == [p.location for p in full.poles[:len(stopped.poles)]]
        last, prev = ((stopped.t[i], stopped.y[i], None if stopped.yp is None else stopped.yp[i])
                      for i in (-1, -2))
        assert stopped.terminal_t == last[0] and until(*last) and not until(*prev)


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
    tight = IntegrationConfig(t_horizon=-20.0, rel_tol=1e-10)
    loose = IntegrationConfig(t_horizon=-20.0, rel_tol=1e-8)
    a = integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.NEGATIVE_T, loose)
    b = integrate(PAINLEVE_I, InitialData(0.0, 1.0), Direction.NEGATIVE_T, tight)
    assert not a.poles and not b.poles
    ya, yb = a.y[-1], b.y[-1]
    assert abs(ya - yb) / abs(yb) < 1e3 * tight.rel_tol


def test_known_trajectories():
    # mid-interval slope: one double pole, then stable tracking of the
    # negative branch
    traj = integrate(PAINLEVE_I, InitialData(0.0, 3.504031103), Direction.NEGATIVE_T)
    assert len(traj.poles) == 1
    rt, ry = traj.t, traj.y
    m = rt <= -50.0
    assert abs(ry[m].mean() + branch_curve(PAINLEVE_I, rt[m]).mean()) < 0.2

    # critical slope given to 10 reference digits: no poles while shadowing the
    # positive branch. The ~3e-10 residual of the reference value amplifies
    # to ~2e-6 by the turning point, so the demonstrable shadow ends near
    # t = -7; the check stays inside it.
    traj = integrate(PAINLEVE_I, InitialData(0.0, 1.851854034), Direction.NEGATIVE_T,
                     IntegrationConfig(t_horizon=-7.0, rel_tol=1e-12))
    assert len(traj.poles) == 0
    rt, ry = traj.t, traj.y
    m = rt <= -6.4
    assert np.max(np.abs(ry[m] / branch_curve(PAINLEVE_I, rt[m]) - 1.0)) < 1e-3

    # positive-direction critical value: one simple pole, then decay
    traj = integrate(PAINLEVE_II, InitialData(1.222873339, 0.0), Direction.POSITIVE_T,
                     IntegrationConfig(t_horizon=8.0))
    assert len(traj.poles) == 1
    rt, ry = traj.t, traj.y
    assert np.abs(ry[rt > 6.0]).min() < 1e-3


def test_toy_trajectory_bounded():
    traj = integrate(TOY_MODEL, InitialData(0.25), Direction.POSITIVE_T)
    assert traj.yp is None
    assert not traj.poles
    ry = traj.y
    assert np.abs(ry).max() < 2.0
    # late-time amplitude decays roughly like 1/t
    rt = traj.t
    assert abs(ry[-1]) < 0.1
