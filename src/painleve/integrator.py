"""Adaptive Runge-Kutta integration with semicircular detours around movable
poles in the complex time plane.

The sweep follows the real axis in the requested direction. When |y| crosses
``detour_start``, the pole location t0 is estimated by :func:`estimate_pole`
from the leading Laurent behavior (y ~ (t - t0)^{-p}  =>  t0 = t + p y/y'),
less the equation's Laurent correction; the sweep walks to the point at the
detour radius from t0, integrates along a half circle t = t0 + r e^{i phi}
in the upper half plane, and resumes on the far side.
Exit states must be real to within the purity tolerance; their residual
imaginary parts are zeroed so drift cannot accumulate.

The right-hand side, pole order, Laurent correction and pole-spacing model
come from the :class:`~painleve.equations.Equation` spec; the stepper gets the
right-hand side as a plain callable.

The stepper is an embedded Dormand-Prince 5(4) pair (FSAL) with standard
PI step-size control, shared by the real-axis sweep, which runs in float
arithmetic, and the arcs, the only part that runs in complex.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .equations import Direction, Equation, InitialData

__all__ = [
    "DegenerateDerivativeError",
    "Direction",
    "IntegrationConfig",
    "IntegrationError",
    "PoleEvent",
    "PurityError",
    "State",
    "StepUnderflowError",
    "Trajectory",
    "estimate_pole",
    "integrate",
]


class IntegrationError(RuntimeError):
    """Base class for integration failures."""


class DegenerateDerivativeError(IntegrationError):
    """Pole location cannot be estimated because |y'| is vanishingly small."""


class PurityError(IntegrationError):
    """State failed to return to the real axis after a detour."""


class StepUnderflowError(IntegrationError):
    """Adaptive stepping stalled below the minimum step size."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Tolerances and limits for :func:`integrate`.

    ``t_horizon`` of None selects the default: -60 for the negative
    direction, the equation's ``positive_horizon`` (+30 for Painleve II,
    +50 for the toy model) for the positive one. ``purity_tol`` bounds
    |Im y| and |Im y'| relative to max(1, |Re|) at detour exits. The default
    ``max_step`` is the largest finite float, which never binds and keeps
    the config strict JSON.

    ``detour_start`` is the |y| at which pole handling engages. Detours must
    begin while the state is still moderate: carrying the pair (y, y')
    deeper than |y| ~ 100 and turning around loses the subleading Laurent
    data to double-precision truncation, which corrupts every post-pole
    digit.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    purity_tol: float = 1e-6
    t_horizon: float | None = None
    max_poles: int = 200
    min_step: float = 1e-12
    max_step: float = sys.float_info.max
    detour_start: float = 15.0

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "purity_tol", "min_step"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.detour_start <= 10.0:
            raise ValueError("detour_start must exceed 10")
        if self.max_poles < 0:
            raise ValueError("max_poles must be non-negative")
        if self.max_step <= 0.0:
            raise ValueError("max_step must be positive")

    def resolved_horizon(self, eq: Equation, direction: Direction) -> float:
        if self.t_horizon is not None:
            return float(self.t_horizon)
        if direction is Direction.NEGATIVE_T:
            return -60.0
        return eq.positive_horizon


@dataclass(frozen=True)
class State:
    """Point on a trajectory: floats on the real axis, complex on a detour
    arc. ``yp`` is None for the first-order toy model."""

    t: complex
    y: complex
    yp: complex | None = None


@dataclass
class PoleEvent:
    """A traversed (or cap-terminating) movable pole.

    ``approach_sign`` is the sign of Re y at the trigger crossing, i.e. the
    direction of the blow-up on the approach side. ``entry_index`` and
    ``exit_index`` locate the detour's real-axis endpoints in the sample
    arrays; a cap-terminating event that was not traversed has neither.
    The pole's order is the equation's ``pole_order``.
    """

    location: float
    detour_radius: float
    approach_sign: int
    entry_index: int | None = None
    exit_index: int | None = None


@dataclass
class Trajectory:
    """Sampled solution path with recorded pole events.

    Samples are ordered by Re t in the integration direction. The arrays are
    complex; only detour samples have t off the real axis. ``stopped_by`` is
    one of 'horizon', 'pole-cap', 'step-underflow'.
    """

    equation: Equation
    direction: Direction
    t: np.ndarray
    y: np.ndarray
    yp: np.ndarray | None
    poles: list[PoleEvent]
    terminal_t: float
    stopped_by: str
    config: IntegrationConfig

    def real_indices(self) -> np.ndarray:
        return np.nonzero(self.t.imag == 0.0)[0]

    def real_t(self) -> np.ndarray:
        return self.t[self.real_indices()].real

    def real_y(self) -> np.ndarray:
        return self.y[self.real_indices()].real

    def real_yp(self) -> np.ndarray | None:
        if self.yp is None:
            return None
        return self.yp[self.real_indices()].real

    @property
    def truncated(self) -> bool:
        return self.stopped_by != "horizon"


# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _advance(f, s0, u0, v0, s1, cfg: IntegrationConfig, on_accept, k1=None, h0=None):
    """March the first-order pair (u, v)' = f(s, u, v) from s0 to s1.

    ``s`` is the real integration parameter (t on the axis, the angle on an
    arc); u, v are floats on the axis, complex on an arc. ``on_accept(s, u,
    v)`` runs after every accepted step and may return a truthy stop token.
    Returns (s, u, v, k1, stop_token), stop_token None when s1 was reached.
    """
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    min_step, max_step = cfg.min_step, cfg.max_step
    s, u, v = s0, u0, v0
    span = s1 - s0
    if span == 0.0:
        return s, u, v, k1, None
    direction = 1.0 if span > 0.0 else -1.0
    if k1 is None:
        k1 = f(s, u, v)
    if h0 is None:
        h0 = min(1e-3, abs(span) / 10.0)
    h = direction * min(abs(h0), max_step)
    err_prev = 1e-4
    while True:
        if direction * (s + h - s1) > 0.0:
            if abs(s1 - s) <= min_step:
                return s1, u, v, k1, None
            h = s1 - s
        if abs(h) < min_step:
            return s, u, v, k1, "step-underflow"
        k1u, k1v = k1
        ua = u + h * (_A21 * k1u)
        va = v + h * (_A21 * k1v)
        k2u, k2v = f(s + _C2 * h, ua, va)
        ua = u + h * (_A31 * k1u + _A32 * k2u)
        va = v + h * (_A31 * k1v + _A32 * k2v)
        k3u, k3v = f(s + _C3 * h, ua, va)
        ua = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
        va = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
        k4u, k4v = f(s + _C4 * h, ua, va)
        ua = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
        va = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
        k5u, k5v = f(s + _C5 * h, ua, va)
        ua = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
        va = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
        k6u, k6v = f(s + h, ua, va)
        un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        k7u, k7v = f(s + h, un, vn)
        eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
        ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
        sc_u = atol + rtol * max(abs(u), abs(un))
        sc_v = atol + rtol * max(abs(v), abs(vn))
        ru = abs(eu) / sc_u
        rv = abs(ev) / sc_v
        err = math.sqrt(0.5 * (ru * ru + rv * rv))
        if err <= 1.0:
            s = s1 if (s + h == s1 or direction * (s + h - s1) >= 0.0) else s + h
            u, v = un, vn
            k1 = (k7u, k7v)
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-10)
            h = direction * min(abs(h) * factor, max_step)
            token = on_accept(s, u, v)
            if token:
                return s, u, v, k1, token
            if s == s1:
                return s, u, v, k1, None
        else:
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-_PI_ALPHA))
            h *= min(1.0, factor)


def estimate_pole(eq: Equation, s: State, min_ratio: float = 1e-12) -> complex:
    """Estimated pole location from the leading Laurent term.

    For y ~ (t - t0)^{-p}, y'/y = -p/(t - t0), so t0 = t + p y/y'. Exact for
    a pure p-th order pole and increasingly accurate as |y| grows.
    """
    if not eq.pole_order:
        raise ValueError("the toy model admits no poles")
    if s.yp is None or abs(s.yp) < min_ratio * abs(s.y):
        raise DegenerateDerivativeError(
            f"cannot estimate pole at t = {s.t}: |y'| = {0.0 if s.yp is None else abs(s.yp)} "
            f"is degenerate against |y| = {abs(s.y)}"
        )
    return s.t + eq.pole_order * s.y / s.yp


def _refined_pole_location(eq: Equation, t: float, y: float, yp: float) -> float:
    """Pole location with the next Laurent orders subtracted.

    The leading estimate of :func:`estimate_pole` errs by the equation's
    ``laurent_correction``: (t0/3) d^3 + (3/4) d^4 for the second equation
    and (t0/5) d^5 + (5/12) d^6 for the first (d the signed distance to the
    pole), from the known series terms below the free coefficient.
    Subtracting them matters for deep simple poles, where the raw estimate
    can miss by a visible fraction of the detour radius.
    """
    t_hat = estimate_pole(eq, State(t, y, yp))
    return t_hat - eq.laurent_correction(t_hat, t - t_hat)


def _arc_rhs(f, t0: complex, radius: float):
    def g(phi, y, yp):
        e = cmath.exp(1j * phi)
        tau = 1j * radius * e
        du, dv = f(t0 + radius * e, y, yp)
        return du * tau, dv * tau
    return g


def _run_arc(f, entry: State, t0: complex, radius: float, cfg, phi0, phi1):
    """Carry the entry state around t0 along the arc t = t0 + radius e^{i phi},
    phi from phi0 to phi1, and return the real exit state with the complex
    (t, y, y') samples accepted on the way."""
    arc_f = _arc_rhs(f, t0, radius)
    samples = []

    def on_accept(phi, u, v):
        samples.append((t0 + radius * cmath.exp(1j * phi), u, v))

    phi, u, v, _, token = _advance(arc_f, phi0, entry.y, entry.yp, phi1, cfg, on_accept)
    if token == "step-underflow":
        raise StepUnderflowError(f"detour arc around t0 = {t0} stalled at phi = {phi}")
    exit_t = (t0 + radius * cmath.exp(1j * phi1)).real
    scale_y = max(1.0, abs(u.real))
    scale_v = max(1.0, abs(v.real))
    if abs(u.imag) > cfg.purity_tol * scale_y or abs(v.imag) > cfg.purity_tol * scale_v:
        raise PurityError(
            f"detour exit at t = {exit_t:.6g} is not real: "
            f"Im y = {u.imag:.3e}, Im y' = {v.imag:.3e} (purity_tol = {cfg.purity_tol})"
        )
    return State(exit_t, u.real, v.real), samples


_RADIUS_MIN = 1e-3
_RADIUS_MAX = 0.3
_REARM_FRACTION = 0.5


def _pick_radius(eq: Equation, t0: float, prev_pole: float | None) -> float:
    """Detour radius for the pole at t0.

    The semicircle must enclose only this pole, so the radius is capped by a
    conservative fraction of the local pole spacing (the equation's
    ``pole_spacing`` model, and the measured gap to the previous pole when
    available). It must also stay well clear of the trigger distance:
    carrying the state around at the trigger radius is catastrophically
    ill-conditioned, because at |y| ~ trigger the free subleading Laurent
    coefficient is buried ~ (trigger distance)^(2p+1) below the leading
    terms and double precision cannot retain it. A
    moderate radius keeps the traversal well conditioned.
    """
    r = 0.3 * eq.pole_spacing(abs(t0))
    if prev_pole is not None:
        r = min(r, 0.3 * abs(t0 - prev_pole))
    return min(_RADIUS_MAX, max(_RADIUS_MIN, r))


def integrate(
    eq: Equation,
    init: InitialData,
    direction: Direction,
    cfg: IntegrationConfig | None = None,
    half_plane: int = 1,
) -> Trajectory:
    """Integrate the initial-value problem from t = 0 to the horizon,
    traversing movable poles via semicircular detours.

    Each equation runs in its ``directions`` only: Painleve I in the
    negative direction, the toy model in the positive one, Painleve II in
    both. Every pole crossing is recorded as a :class:`PoleEvent`. Hitting
    the pole cap or a step underflow truncates the trajectory (see
    ``Trajectory.stopped_by``) rather than raising, so callers can classify
    truncated runs. ``half_plane`` +1 detours through the upper half plane,
    -1 through the lower; by Schwarz reflection the two give conjugate arcs
    and the same real exits.
    """
    if cfg is None:
        cfg = IntegrationConfig()
    if half_plane not in (1, -1):
        raise ValueError("half_plane must be +1 or -1")
    if direction not in eq.directions:
        allowed = " and ".join(d.name.split("_")[0].lower() for d in eq.directions)
        raise ValueError(f"{eq.name} is integrated in the {allowed} direction only")
    horizon = cfg.resolved_horizon(eq, direction)
    dirsign = direction.sign
    if dirsign * horizon <= 0.0:
        raise ValueError(f"horizon {horizon} is on the wrong side of t = 0 for direction {direction.value}")

    f = eq.rhs
    pole_free = not eq.pole_order
    trigger = cfg.detour_start
    rearm = _REARM_FRACTION * trigger

    t = 0.0
    y = float(init.y0)
    v = 0.0 if eq.first_order else float(init.slope0)
    ts: list[float | complex] = [t]
    ys: list[float | complex] = [y]
    vs: list[float | complex] = [v]
    poles: list[PoleEvent] = []
    armed = abs(y) < trigger
    stopped_by = "horizon"
    k1 = None

    def on_accept(s, u, w):
        ts.append(s)
        ys.append(u)
        vs.append(w)
        if pole_free:
            return None
        nonlocal armed
        mag = abs(u)
        if armed and mag >= trigger:
            return "pole"
        if not armed and mag < rearm:
            armed = True
        return None

    while True:
        t, y, v, k1, token = _advance(f, t, y, v, horizon, cfg, on_accept, k1=k1)
        if token is None:
            break
        if token == "step-underflow":
            stopped_by = "step-underflow"
            break
        # Pole trigger fired at (t, y, v).
        approach_sign = 1 if y >= 0.0 else -1
        t0 = _refined_pole_location(eq, t, y, v)
        if dirsign * (t0 - t) <= 0.0:
            raise IntegrationError(
                f"pole estimate {t0:.6g} is not ahead of the sweep at t = {t:.6g}"
            )
        if poles:
            prev = poles[-1].location
            if dirsign * (t0 - prev) <= 0.0:
                raise IntegrationError(
                    f"pole estimate {t0:.6g} is not beyond the previous pole at {prev:.6g}"
                )
        if len(poles) >= cfg.max_poles:
            poles.append(PoleEvent(location=t0, detour_radius=0.0, approach_sign=approach_sign))
            stopped_by = "pole-cap"
            break
        radius = _pick_radius(eq, t0, poles[-1].location if poles else None)
        entry_t = t0 - dirsign * radius
        if abs(entry_t - t) > 1e-14 * max(1.0, abs(t)):
            # Walk (possibly against the sweep direction) to the circle.
            t, y, v, _, tok2 = _advance(f, t, y, v, entry_t, cfg, lambda *_: None, k1=k1)
            if tok2 == "step-underflow":
                stopped_by = "step-underflow"
                break
        # Samples at or past the circle entry would break Re-t monotonicity
        # once the fresh entry sample is appended; drop them.
        while len(ts) > 1 and ts[-1].imag == 0.0 and dirsign * (ts[-1].real - entry_t) >= 0.0:
            ts.pop()
            ys.pop()
            vs.pop()
        ts.append(entry_t)
        ys.append(y)
        vs.append(v)
        entry_index = len(ts) - 1
        if direction is Direction.NEGATIVE_T:
            phi0, phi1 = 0.0, half_plane * math.pi
        else:
            phi0, phi1 = half_plane * math.pi, 0.0
        exit_state, arc = _run_arc(
            f, State(entry_t, complex(y), complex(v)), t0, radius, cfg, phi0, phi1
        )
        for tc, uc, wc in arc:
            ts.append(tc)
            ys.append(uc)
            vs.append(wc)
        ts.append(exit_state.t)
        ys.append(exit_state.y)
        vs.append(exit_state.yp)
        exit_index = len(ts) - 1
        poles.append(
            PoleEvent(
                location=t0,
                detour_radius=radius,
                approach_sign=approach_sign,
                entry_index=entry_index,
                exit_index=exit_index,
            )
        )
        t, y, v = exit_state.t, exit_state.y, exit_state.yp
        armed = False
        k1 = None
        if dirsign * (t - horizon) >= 0.0:
            break

    t_arr = np.asarray(ts, dtype=complex)
    y_arr = np.asarray(ys, dtype=complex)
    v_arr = None if eq.first_order else np.asarray(vs, dtype=complex)
    return Trajectory(
        equation=eq,
        direction=direction,
        t=t_arr,
        y=y_arr,
        yp=v_arr,
        poles=poles,
        terminal_t=t,
        stopped_by=stopped_by,
        config=cfg,
    )
