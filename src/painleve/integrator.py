"""Adaptive Runge-Kutta integration along the real axis, with movable poles
crossed on their Laurent series.

The sweep follows the real axis in the requested direction. When |y| crosses
``_DETOUR_START``, the pole location t0 is estimated by :func:`estimate_pole`
from the leading Laurent behavior (y ~ (t - t0)^{-p}  =>  t0 = t + p y/y'),
less the equation's Laurent correction. The detour radius never reaches back
to the sweep's boundary, t = 0 or the previous crossing's exit, so the entry
point lies ahead of every sample the sweep keeps. The samples at or past the
entry are dropped, and the sweep walks forward to the entry from the last
sample before it, so no state carried inside the circle reaches the
crossing. There the solution is a member of the pole's two-parameter
Laurent family (the location t0 and a free coefficient h; see
``Equation.laurent``). Newton's method fits both to the
entry sample: two steps on a short series, then steps on the full one, whose
last step is applied to the coefficients linearly, so a crossing builds the
full series about once. The series gives y, y' and the fluctuation integral
at the entry's mirror point about the fitted t0, where the sweep resumes. All
of it runs in float arithmetic; a trajectory holds the real axis only, the
crossing's entry and exit included. After an exit the detour re-arms once
|y| rises again.

Step sizes carry across a crossing: the walk tries the whole distance to the
circle in one step, and the sweep past the exit starts from the step the
walk proposed at the entry, the exit's mirror point.

The right-hand side, pole order, Laurent family and correction and the
pole-spacing model come from the :class:`~painleve.equations.Equation`
spec.

The stepper is the explicit 8th-order Runge-Kutta pair DOP853 of Hairer,
Norsett and Wanner (FSAL: the evaluation at the end of an accepted step is
the next step's first stage), with their combined 5th/3rd-order error
estimate and a plain err^(-1/8) step-size controller. Beside (y, y') it
carries the fluctuation integral I = int dH/dt dt, the third component of
the equation's right-hand side, as a quadrature-only state: I never feeds
back into the right-hand side and stays out of the error norm, so it changes
no step, and it is integrated at the stepper's own order.

Each equation's step is Python source generated from one template, the
tableau below and the equation's ``rhs_source``, and compiled on the
equation's first :func:`integrate`: every stage evaluates the right-hand
side's expressions in place, with the tableau's nonzero weights as float
literals, and computes dH/dt only at the stages the 8th-order weights use.
The first-order toy model's step carries y alone. The same template, with a
call f(t, y, y') at each stage, gives the call-based step for any callable,
complex ones included. Every generated step evaluates the same expressions
in the same order as the call-based step does with ``eq.rhs``, so both give
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, repeat
from operator import mul
from typing import Callable

import numpy as np

from .equations import Direction, Equation, InitialData, _compiled

__all__ = [
    "CrossingError",
    "DegenerateDerivativeError",
    "Direction",
    "IntegrationConfig",
    "IntegrationError",
    "PoleEvent",
    "Trajectory",
    "estimate_pole",
    "integrate",
]


class IntegrationError(RuntimeError):
    """Base class for integration failures."""


class DegenerateDerivativeError(IntegrationError):
    """Pole location cannot be estimated because |y'| is vanishingly small."""


class CrossingError(IntegrationError):
    """A pole's Laurent series did not converge on its circle, or its fit
    to the entry sample did not."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Tolerances and limits for :func:`integrate`.

    ``t_horizon`` of None selects the equation's default horizon for the
    direction, from ``Equation.horizons``; a full-horizon search probe
    stops earlier once ``Equation.settled`` holds. A run crosses at
    most ``max_poles`` poles. ``abs_tol`` is ``rel_tol * 1e-2``; the step
    controller alone sizes every step.
    """

    rel_tol: float = 1e-10
    t_horizon: float | None = None
    max_poles: int = 200

    def __post_init__(self) -> None:
        # a NaN passes every comparison check, so finiteness is asked first
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(f"rel_tol = {self.rel_tol} must be positive and finite")
        if self.t_horizon is not None and not math.isfinite(self.t_horizon):
            raise ValueError(f"t_horizon = {self.t_horizon} must be finite")
        # a NaN cap never stops a run; bool is an int subclass, but not a count
        if not isinstance(self.max_poles, int) or isinstance(self.max_poles, bool) or self.max_poles < 0:
            raise ValueError(f"max_poles = {self.max_poles!r} must be a non-negative int")

    @property
    def abs_tol(self) -> float:
        return self.rel_tol * 1e-2

    def resolved_horizon(self, eq: Equation, direction: Direction) -> float:
        if self.t_horizon is not None:
            return float(self.t_horizon)
        return eq.horizons[direction]


@dataclass
class PoleEvent:
    """A traversed (or cap-terminating) movable pole.

    ``location`` is the pole's t0 as the Laurent fit found it, and
    ``detour_radius`` the distance from it to the crossing's entry and exit;
    a cap-terminating event that was not traversed keeps the estimate and a
    zero radius. ``approach_sign`` is the sign of y at the trigger crossing,
    i.e. the direction of the blow-up on the approach side. ``entry_index``
    locates the crossing's entry in the sample arrays; the exit is the next
    sample. The entry lies strictly ahead of the previous crossing's exit,
    or of t = 0 for the first crossing. A cap-terminating event has no
    entry. The pole's order is the equation's ``pole_order``.
    """

    location: float
    detour_radius: float
    approach_sign: int
    entry_index: int | None = None


@dataclass
class Trajectory:
    """Sampled solution path with recorded pole events.

    Samples lie on the real axis, from t = 0 strictly ordered by t in the
    integration direction, and the arrays are float. A pole crossing's entry
    and exit are consecutive samples, the entry strictly ahead of the
    previous exit (see :class:`PoleEvent`). ``fluct`` is the fluctuation
    integral I = int_0^t dH/dt dt, carried by the stepper and, across each
    pole, by the Laurent series (see
    :func:`~painleve.equations.fluctuation_integral`); it and ``yp`` are
    None for the first-order toy model. ``stopped_by`` is one of 'horizon',
    'settled' (the caller's ``until`` predicate fired), 'pole-cap',
    'step-underflow'; only the last two truncate the run.
    """

    equation: Equation
    direction: Direction
    t: np.ndarray
    y: np.ndarray
    yp: np.ndarray | None
    fluct: np.ndarray | None
    poles: list[PoleEvent]
    terminal_t: float
    stopped_by: str
    config: IntegrationConfig

    def real_y(self) -> np.ndarray:
        return self.y

    def real_yp(self) -> np.ndarray | None:
        return self.yp

    @property
    def truncated(self) -> bool:
        return self.stopped_by in ("pole-cap", "step-underflow")


# DOP853 tableau (Hairer, Norsett & Wanner, Solving Ordinary Differential
# Equations I, 2nd ed., sec. II.10), with the digits of their dop853.f, over
# stages 1..12: _C holds the nodes, _A[i] the weights of the earlier stages in
# stage i + 1, _B the 8th-order weights, _BHH the 3rd-order weights and _ER
# the 5th-order error weights. Stage 12 sits at the end of the step (c = 1).
# The generated steps below leave the zero weights out.
_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0,
)
_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
        2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
_BHH = (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1,
)
_ER = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# The error norm is Hairer's estimate times this constant. At a given rel_tol
# it makes the 8th-order pair at least as accurate as the Dormand-Prince 5(4)
# pair it replaced. Without it, at rel_tol 1e-10, y(-40) of the README P-I
# and P-II runs erred 4.4x and 2.4x more than with that pair, and the energy
# identity of 13 of 930 benchmark trajectories exceeded its budget.
_ERR_SCALE = 4.0
_MIN_RATIO = 1e-12  # |y'/y| below which estimate_pole calls the state degenerate
_MIN_STEP = 1e-12  # a step below this underflows
# |y| at which pole handling engages: the trigger that estimates the pole. The
# crossing itself starts from the last sample before the detour circle, so a
# deeper trigger sharpens the estimate but leaves the continuation past the
# pole as it is (y(-20) of the README runs moves by at most 6.2e-10 between 15
# and 150).
_DETOUR_START = 15.0


def _step_source(rhs_source) -> str:
    """Source of the DOP853 step ``step(s, u, v, h, k1, rtol, atol)`` of one
    right-hand-side source (see ``Equation.rhs_source``), where k1 is the
    right-hand side's triple at (s, u, v).

    Each stage binds t, y and yp and evaluates the source's expressions in
    place. A source of one expression, the first-order toy model's, steps u
    alone and leaves v and the quadrature w at rest. A source of None gives
    the call-based step ``step(f, s, u, v, h, k1, rtol, atol)``, whose stages
    call f(t, y, yp) for the triple, so it steps any callable, complex ones
    too. The step returns the new (u, v), the slope of w over the step (w
    grows by h times it) and the scaled error norm of the state, which
    accepts the step when it is at most 1 (a NaN norm, from a non-finite
    state, never does); w stays out of the norm.
    """
    call = rhs_source is None
    comps = "uvw"[:3 if call else len(rhs_source)]
    state = comps[:2]

    def weighted(weights, c):
        return " + ".join(f"{x!r} * k{j}{c}" for j, x in enumerate(weights, 1) if x)

    lines = [f"def step({'f, ' if call else ''}s, u, v, h, k1, rtol, atol):"]
    lines += [f"    k1{c} = k1[{j}]" for j, c in enumerate(comps)]
    for i in range(1, 12):  # stages 2..12
        lines.append(f"    t = s + {_C[i]!r} * h")
        lines += [f"    {name} = {c} + h * ({weighted(_A[i], c)})" for c, name in zip(state, ("y", "yp"))]
        if call:
            lines.append(f"    k{i + 1}u, k{i + 1}v, k{i + 1}w = f(t, y, yp)")
        else:
            # dH/dt only where the 8th-order weights use it
            lines += [f"    k{i + 1}{c} = {expr}" for c, expr in zip(comps, rhs_source) if c != "w" or _B[i]]
    lines += [f"    d{c} = {weighted(_B, c)}" for c in comps]
    for c in state:
        bhh = "".join(f" - {x!r} * k{j}{c}" for j, x in enumerate(_BHH, 1) if x)
        lines += [
            f"    {c}n = {c} + h * d{c}",
            f"    sc_{c} = atol + rtol * max(abs({c}), abs({c}n))",
            f"    e5{c} = ({weighted(_ER, c)}) / sc_{c}",
            f"    e3{c} = (d{c}{bhh}) / sc_{c}",
        ]
    # Hairer's error estimate: the 5th-order estimate, damped where it is
    # small against the 3rd-order one, |h| r5 / sqrt(2 (r5 + 0.01 r3)) with
    # r5, r3 the sums of squares over the state of each estimate's scaled
    # error.
    lines += [
        "    r5 = " + " + ".join(f"abs(e5{c}) ** 2" for c in state),
        "    den = r5 + 0.01 * (" + " + ".join(f"abs(e3{c}) ** 2" for c in state) + ")",
        # den is a sum of squares: 0 only on an exact step, NaN on a non-finite
        # state, whose NaN error then rejects the step
        f"    err = {_ERR_SCALE!r} * abs(h) * r5 / sqrt(2.0 * den) if den else 0.0",
        f"    return un, {'vn' if 'v' in state else 'v'}, {'dw' if 'w' in comps else '0.0'}, err",
    ]
    return "\n".join(lines) + "\n"


@cache
def _step_for(rhs_source):
    """The DOP853 step generated from ``rhs_source`` (see
    :func:`_step_source`), built on first use."""
    return _compiled(_step_source(rhs_source), "step")


def _call_step(f):
    """The call-based DOP853 step bound to the callable f(t, y, y'), which
    returns the triple (y', y'', dH/dt)."""
    return partial(_step_for(None), f)


def _advance(step, f, s0, u0, v0, w0, s1, cfg: IntegrationConfig, on_accept, k1=None, h=None):
    """March the first-order pair (u, v)' = f(s, u, v)[:2] from s0 to s1,
    with the quadrature w' = f(s, u, v)[2] carried alongside, by ``step``,
    a DOP853 step of f (see :func:`_step_source`).

    ``s`` is the real integration parameter, t on the real axis. w never
    feeds back into f and stays out of the error norm, so it changes no
    step.
    ``on_accept(s, u, v, w)`` runs after every accepted step and may return
    a truthy stop token. ``k1`` is f at the start, when the caller has it.
    ``h`` is the size of the first step to try, a step an earlier march
    proposed; without it the march starts at min(1e-3, |s1 - s0|/10).
    From there the error controller alone sizes every step, clipped to end
    at s1. A step below ``_MIN_STEP`` is not taken: the march has arrived
    if s1 is that close, and underflows otherwise.
    Returns (s, u, v, w, k1, h, stop_token): h is the size of the step the
    march would take next, stop_token None when s1 was reached and
    'step-underflow' on an underflow.
    """
    rtol, atol = cfg.rel_tol, cfg.abs_tol
    s, u, v, w = s0, u0, v0, w0
    span = s1 - s0
    if h is None:
        h = min(1e-3, abs(span) / 10.0)
    direction = 1.0 if span > 0.0 else -1.0
    if k1 is None:
        k1 = f(s, u, v)
    h = direction * abs(h)
    while True:
        if direction * (s + h - s1) > 0.0:
            h = s1 - s
        if abs(h) < _MIN_STEP:
            if abs(s1 - s) < _MIN_STEP:
                return s1, u, v, w, k1, abs(h), None
            return s, u, v, w, k1, abs(h), "step-underflow"
        un, vn, dw, err = step(s, u, v, h, k1, rtol, atol)
        if err <= 1.0:
            s = s1 if (s + h == s1 or direction * (s + h - s1) >= 0.0) else s + h
            u, v, w = un, vn, w + h * dw
            k1 = f(s, u, v)
            factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.125)
            h *= factor
            token = on_accept(s, u, v, w)
            if token:
                return s, u, v, w, k1, abs(h), token
            if s == s1:
                return s, u, v, w, k1, abs(h), None
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.125)


def estimate_pole(eq: Equation, t: float, y: float, yp: float) -> float:
    """Estimated pole location from the leading Laurent term at the state
    (t, y, y').

    For y ~ (t - t0)^{-p}, y'/y = -p/(t - t0), so t0 = t + p y/y'. Exact for
    a pure p-th order pole and increasingly accurate as |y| grows.
    """
    if not eq.pole_order:
        raise ValueError("the toy model admits no poles")
    if abs(yp) < _MIN_RATIO * abs(y):
        raise DegenerateDerivativeError(
            f"cannot estimate pole at t = {t}: |y'| = {abs(yp)} is degenerate against |y| = {abs(y)}"
        )
    return t + eq.pole_order * y / yp


def _refined_pole_location(eq: Equation, t: float, y: float, yp: float) -> float:
    """Pole location with the next Laurent orders subtracted.

    The leading estimate of :func:`estimate_pole` errs by the equation's
    ``laurent_correction``: (t0/3) d^3 + (3/4) d^4 for the second equation
    and (t0/5) d^5 + (5/12) d^6 for the first (d the signed distance to the
    pole), from the known series terms below the free coefficient. The
    result centres the crossing's circle and starts its Laurent fit;
    subtracting the terms matters for deep simple poles, where the raw
    estimate can miss by a visible fraction of the radius.
    """
    t_hat = estimate_pole(eq, t, y, yp)
    return t_hat - eq.laurent_correction(t_hat, t - t_hat)


_MAX_TERMS = 80  # a Laurent series that needs more terms does not converge on the circle
_MAX_BUILDS = 40  # full-length series builds one crossing may take, term growth included
_FIT_TOL = 1e-8  # bound on the last Newton step: the step it leaves is at the rounding level
_PREFIT_TERMS = 8  # terms past the free coefficient in the pre-fit's short series


def _powers(d: float, e0: int, count: int) -> list:
    """d^e0, d^(e0 + 1), ..., count powers."""
    return list(accumulate(repeat(d, count - 1), mul, initial=d ** e0))


def _at_both(c, pw, e0: int):
    """sum_k c_k d^(e0 + k) at d and at -d, from pw = the powers d^(e0 + k):
    the even and the odd powers add at d and subtract at -d."""
    terms = list(map(mul, c, pw))
    even, odd = sum(terms[e0 % 2::2]), sum(terms[1 - e0 % 2::2])
    return even + odd, even - odd


def _newton_step(eq: Equation, t_e, y_e, v_e, d, a, at, ah):
    """Newton step (dt0, dh) that fits the series (a, at, ah), built at
    d = t_e - t0, to the entry's (y, y'), and the powers d^(k-p) it used."""
    p = eq.pole_order
    low = _powers(d, -p - 1, len(a) + 1)  # d^(k-p-1), k = 0..n
    pw = low[1:]
    dpw = [(k - p) * x for k, x in enumerate(low[:-1])]
    y = sum(map(mul, a, pw))
    v = sum(map(mul, a, dpw))
    # Jacobian of (y, y') in (t0, h)
    j11 = sum(map(mul, at, pw)) - v
    j21 = sum(map(mul, at, dpw)) - eq.rhs(t_e, y, v)[1]
    j12 = sum(map(mul, ah, pw))
    j22 = sum(map(mul, ah, dpw))
    det = j11 * j22 - j12 * j21
    dt0 = ((v - v_e) * j12 - (y - y_e) * j22) / det
    dh = ((y - y_e) * j21 - (v - v_e) * j11) / det
    if not (math.isfinite(dt0) and math.isfinite(dh)):
        raise CrossingError(f"Laurent fit at |t - t0| = {abs(d):.3g} took a non-finite step")
    return dt0, dh, pw


def _laurent_cross(eq: Equation, entry, t0: float, cfg: IntegrationConfig):
    """Carry the entry sample (t_e, y_e, y'_e, I) across the pole near t0 on
    the pole's Laurent family (see ``Equation.laurent``).

    Newton's method, started from the estimate ``t0`` and h = 0, solves
    y(t_e) = y_e, y'(t_e) = y'_e for the location t0 and the free
    coefficient h. Its Jacobian comes from the differentiated recurrence;
    the t0 column also carries -y' and -y'', since d = t - t0. Two steps on
    a short series, ``_PREFIT_TERMS`` terms past h, remove most of the
    start error; the steps that follow use the full series. That series
    starts from 2 log10(1/rel_tol) - 1 terms and grows by 4 while either of
    its last two terms |a_k| |d|^k exceeds 1e-2 rel_tol. Once a step moves
    t0 by at most ``_FIT_TOL`` |d| and h d^(2p+2) (h's share of y d^p) by
    at most ``_FIT_TOL``, it is applied to the coefficients along their t0
    and h derivatives instead of building the series again: what that
    leaves out is second order in the step, at the rounding level. The exit
    is the entry's mirror image t_x = 2 t0 - t_e, where the series gives y
    and y' from the entry's powers of d with alternating signs; I grows by
    int t dQ = [t Q] - int Q dt, termwise. Returns the exit sample, the
    fitted t0 and h. Raises :class:`CrossingError` when the series needs
    more than ``_MAX_TERMS`` terms, as it does once the circle reaches
    another singularity, or when Newton does not converge or breaks down.
    """
    try:
        return _laurent_fit_and_exit(eq, entry, t0, cfg)
    except (ZeroDivisionError, OverflowError) as exc:
        raise CrossingError(f"Laurent fit of the pole near t = {t0:.6g} broke down: {exc}") from exc


def _laurent_fit_and_exit(eq: Equation, entry, t0: float, cfg: IntegrationConfig):
    t_e, y_e, v_e, w_e = entry
    p = eq.pole_order
    m = 2 * p + 2  # index of the free coefficient
    tail_tol = 1e-2 * cfg.rel_tol
    sign = math.copysign(1.0, y_e * (t_e - t0) ** p)
    n = max(m + 2, int(2.0 * math.log10(1.0 / cfg.rel_tol)) - 1)
    h = 0.0
    for _ in range(2):
        a, at, ah = eq.laurent(t0, h, sign, min(n, m + _PREFIT_TERMS))
        dt0, dh, _ = _newton_step(eq, t_e, y_e, v_e, t_e - t0, a, at, ah)
        t0 += dt0
        h += dh
    for _ in range(_MAX_BUILDS):
        a, at, ah = eq.laurent(t0, h, sign, n)
        d = t_e - t0
        dt0, dh, pw = _newton_step(eq, t_e, y_e, v_e, d, a, at, ah)
        t0 += dt0
        h += dh
        if abs(d) ** p * max(abs(a[-1] * pw[-1]), abs(a[-2] * pw[-2])) > tail_tol:
            n += 4
            if n > _MAX_TERMS:
                raise CrossingError(
                    f"Laurent series of the pole near t = {t0:.6g} does not converge at "
                    f"|t - t0| = {abs(d):.3g}: it needs more than {_MAX_TERMS} terms"
                )
        elif abs(dt0) <= _FIT_TOL * abs(d) and abs(dh) * abs(d) ** m <= _FIT_TOL:
            break
    else:
        raise CrossingError(f"Laurent fit of the pole near t = {t0:.6g} did not converge")
    a = [x + xt * dt0 + xh * dh for x, xt, xh in zip(a, at, ah)]
    q = eq.laurent_q(a)
    d = t_e - t0
    t_x = 2.0 * t0 - t_e
    pw = _powers(d, -p - 1, n + p)  # d^(j-p-1): y' from j = 0, y from 1, Q from p - 1, int Q from p
    _, y_x = _at_both(a, pw[1:], -p)
    _, v_x = _at_both([(k - p) * x for k, x in enumerate(a)], pw, -p - 1)
    # Q = sum_k q_k d^(k-2) and its antiderivative; q_1 = 0
    q_e, q_x = _at_both(q, pw[p - 1:], -2)
    int_e, int_x = _at_both([x / (k - 1) if k != 1 else 0.0 for k, x in enumerate(q)], pw[p:], -1)
    return (t_x, y_x, v_x, w_e + t_x * q_x - t_e * q_e - (int_x - int_e)), t0, h


_RADIUS_MIN = 1e-3
_RADIUS_MAX = 0.3
_BOUNDARY_SHARE = 0.99  # of the distance from the pole back to the sweep's boundary


def _pick_radius(eq: Equation, t0: float, prev_pole: float | None, boundary: float) -> float:
    """Detour radius for the pole at t0, the one place every bound on it is
    set.

    The circle must hold only this pole: the pole's Laurent series converges
    only out to the nearest other singularity, in the complex t plane, so
    the radius is capped by a conservative fraction of the local pole
    spacing (the equation's ``pole_spacing`` model, and the measured gap to
    the previous pole when available). It must not shrink far below that:
    close to the pole the fit is ill-conditioned, because at distance d the
    free Laurent coefficient is buried ~ d^(2p+2) below the leading term
    and double precision cannot retain it. A moderate radius keeps the
    crossing well conditioned. Last, the circle must not reach back to the
    sweep's ``boundary``, t = 0 or the previous crossing's exit: the radius
    is at most ``_BOUNDARY_SHARE`` of the distance from t0 to it, whatever
    the clamp above gave, so the entry lies strictly ahead of every sample
    the sweep keeps. The trigger depth plays no part: the sweep reaches the
    circle from outside it.
    """
    r = 0.3 * eq.pole_spacing(abs(t0))
    if prev_pole is not None:
        r = min(r, 0.3 * abs(t0 - prev_pole))
    return min(_RADIUS_MAX, max(_RADIUS_MIN, r), _BOUNDARY_SHARE * abs(t0 - boundary))


def integrate(
    eq: Equation,
    init: InitialData,
    direction: Direction,
    cfg: IntegrationConfig | None = None,
    until: Callable | None = None,
) -> Trajectory:
    """Integrate the initial-value problem from t = 0 to the horizon,
    crossing movable poles on their Laurent series.

    Each equation runs only in the directions of its ``horizons``: Painleve
    I in the negative direction, the toy model in the positive one,
    Painleve II in both. Every pole crossing is recorded as a
    :class:`PoleEvent`; its circle is placed by one rule,
    :func:`_pick_radius`, which keeps it clear of the sweep's boundary
    (t = 0, then each crossing's exit), so the samples stay strictly
    ordered in the direction of the run. Hitting the pole cap or a step
    underflow truncates the trajectory (see ``Trajectory.stopped_by``)
    rather than raising, so callers can classify truncated runs; a
    crossing that fails raises :class:`CrossingError`.
    ``until(t, y, y')``, if given, is checked after every accepted
    real-axis step; once it holds, the run ends there with ``stopped_by``
    'settled'. Non-finite initial data raise ValueError.
    """
    if cfg is None:
        cfg = IntegrationConfig()
    if direction not in eq.horizons:
        allowed = " and ".join(d.name.split("_")[0].lower() for d in eq.horizons)
        raise ValueError(f"{eq.name} is integrated in the {allowed} direction only")
    if not (math.isfinite(init.y0) and (eq.first_order or math.isfinite(init.slope0))):
        raise ValueError(f"initial data {init} must be finite")
    horizon = cfg.resolved_horizon(eq, direction)
    dirsign = direction.sign
    if dirsign * horizon <= 0.0:
        raise ValueError(f"horizon {horizon} is on the wrong side of t = 0 for direction {direction.value}")

    f = eq.rhs
    step = _step_for(eq.rhs_source)
    pole_free = not eq.pole_order
    trigger = _DETOUR_START

    t = 0.0
    y = float(init.y0)
    v = 0.0 if eq.first_order else float(init.slope0)
    w = 0.0
    samples: list[tuple] = [(t, y, v, w)]  # (t, y, y', I) on the real axis
    boundary = t  # no circle reaches back to it: the start, then the last exit
    poles: list[PoleEvent] = []
    armed = abs(y) < trigger
    last_mag = abs(y)
    stopped_by = "horizon"
    k1 = None
    h = None

    def on_accept(s, u, yp, fluct):
        samples.append((s, u, yp, fluct))
        if until is not None and until(s, u, yp):
            return "settled"
        if pole_free:
            return None
        nonlocal armed, last_mag
        mag = abs(u)
        if armed and mag >= trigger:
            return "pole"
        # After an exit |y| falls away from the pole just passed; once it
        # rises again, the next pole is ahead.
        if not armed and mag > last_mag:
            armed = True
        last_mag = mag
        return None

    while True:
        t, y, v, w, k1, h, token = _advance(step, f, t, y, v, w, horizon, cfg, on_accept, k1=k1, h=h)
        if token is None:
            break
        if token != "pole":
            stopped_by = token
            break
        # Pole trigger fired at (t, y, v).
        approach_sign = 1 if y >= 0.0 else -1
        t0 = _refined_pole_location(eq, t, y, v)
        if dirsign * (t0 - t) <= 0.0:
            raise IntegrationError(
                f"pole estimate {t0:.6g} is not ahead of the sweep at t = {t:.6g}"
            )
        if len(poles) >= cfg.max_poles:
            poles.append(PoleEvent(location=t0, detour_radius=0.0, approach_sign=approach_sign))
            stopped_by = "pole-cap"
            break
        radius = _pick_radius(eq, t0, poles[-1].location if poles else None, boundary)
        entry_t = t0 - dirsign * radius
        # The samples at or past the circle entry served the trigger and the
        # pole estimate; drop them and walk to the circle from the last
        # sample before it, so no state from inside the circle is carried
        # back out. The entry lies ahead of the boundary sample, which stays.
        if dirsign * (t - entry_t) >= 0.0:
            while dirsign * (samples[-1][0] - entry_t) >= 0.0:
                samples.pop()
            (t, y, v, w), k1 = samples[-1], None
        if abs(entry_t - t) > 1e-14 * max(1.0, abs(t)):
            t, y, v, w, _, h, tok2 = _advance(step, f, t, y, v, w, entry_t, cfg, lambda *_: None,
                                              k1=k1, h=abs(entry_t - t))
            if tok2 == "step-underflow":
                if t != samples[-1][0]:  # keep terminal_t on the data
                    samples.append((t, y, v, w))
                stopped_by = "step-underflow"
                break
        samples.append((entry_t, y, v, w))
        entry_index = len(samples) - 1
        exit_sample, t0, _ = _laurent_cross(eq, samples[-1], t0, cfg)
        samples.append(exit_sample)
        poles.append(
            PoleEvent(
                location=t0,
                detour_radius=abs(entry_t - t0),
                approach_sign=approach_sign,
                entry_index=entry_index,
            )
        )
        t, y, v, w = exit_sample
        boundary = t
        armed = False
        last_mag = abs(y)
        k1 = None
        if dirsign * (t - horizon) >= 0.0:
            break

    t_arr, y_arr, v_arr, w_arr = (np.array(col, dtype=float) for col in zip(*samples))
    return Trajectory(
        equation=eq,
        direction=direction,
        t=t_arr,
        y=y_arr,
        yp=None if eq.first_order else v_arr,
        fluct=None if eq.first_order else w_arr,
        poles=poles,
        terminal_t=t,
        stopped_by=stopped_by,
        config=cfg,
    )
