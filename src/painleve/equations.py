"""Dynamical systems under study, one spec object per equation.

Three systems are supported:

* Painleve I,  y'' = 6 y^2 + t   (movable double poles),
* Painleve II, y'' = 2 y^3 + t y (movable simple poles),
* a first-order toy model, y' = cos(pi t y), which is pole free.

Every fact the pipeline needs about one of them - its right-hand side and
fluctuation integrand dH/dt, written once as source, the energy H, the
branch curves, the pole order, Laurent family and Laurent correction, the
pole-spacing model, the separatrix asymptotics the eigenvalue search
matches to, the rule that ends a run once its class is final (the stable
well's for Painleve I and II), the allowed directions and default horizon,
and the search facts of each mode (direction, scan seed, growth exponent,
Richardson order, WKB constant) - lives in its :class:`Equation` below.
The integrator, classifier, eigensolver and CLI read those facts and never
ask which equation they hold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

if TYPE_CHECKING:
    from .integrator import Trajectory

__all__ = [
    "Direction",
    "Equation",
    "InitialData",
    "ModeKind",
    "ModeSpec",
    "PAINLEVE_I",
    "PAINLEVE_II",
    "TOY_MODEL",
    "branch_curve",
    "energy",
    "equation_from_name",
    "fluctuation_integral",
]


class Direction(enum.Enum):
    NEGATIVE_T = "neg"
    POSITIVE_T = "pos"

    @property
    def sign(self) -> float:
        return -1.0 if self is Direction.NEGATIVE_T else 1.0


class ModeKind(enum.Enum):
    SLOPE = "slope"   # fix y(0), vary y'(0)
    VALUE = "value"   # fix y'(0), vary y(0)
    TOY = "toy"       # vary y(0)


@dataclass(frozen=True)
class ModeSpec:
    """Facts about one search mode of one equation.

    The search integrates in ``direction``, and its critical values x_n
    grow like n**exponent. The scan starts at ``origin`` with ``step``.
    In every mode ``coeff`` is a lower bound on |x_n| / n**exponent for
    n >= 2: it bounds the scan, and it sizes each full-horizon probe's pole
    cap and horizon from the number of critical values at or below the
    probe's |x|. ``order``, ``split_even_odd`` and ``constant`` (a
    :class:`~painleve.asymptotics.WkbConstants` field) drive the Richardson
    extraction; a mode without a closed form has none.
    A table of the mode holds at most ``max_index`` critical values.
    """

    direction: Direction
    origin: float
    step: float
    exponent: float
    coeff: float
    order: int | None = None
    split_even_odd: bool = False
    constant: str | None = None
    max_index: int = 30


def _compiled(source: str, name: str):
    """The object named ``name`` that ``source`` defines, run with the math
    module's public names as its globals. The sources are the package's own
    templates and ``Equation.rhs_source`` strings."""
    namespace = {k: v for k, v in vars(math).items() if not k.startswith("_")}
    exec(source, namespace)
    return namespace[name]


@dataclass(frozen=True, eq=False)
class Equation:
    """One supported system and every fact the pipeline needs about it.

    ``rhs_source`` writes the right-hand side once, as Python expressions in
    t, y and yp that may use the math module's names: (y', y'', dH/dt), the
    system the integrator steps and the rate of the energy along a solution
    (t y' for Painleve I, t y y' for Painleve II), whose integral the
    integrator carries beside the state as the fluctuation integral. The
    first-order toy model gives y' alone. The integrator writes the
    expressions into a DOP853 step of their own, and ``rhs`` compiles them
    into the callable ``rhs(t, y, y')``, which returns the triple ((y', 0, 0)
    for the toy model, which ignores y').
    ``pole_order`` is the order of the movable poles (2, 1, or 0 for the
    pole-free toy model). The toy model has no energy, branch curves or
    poles, so of the callables below it has only ``separatrix`` and
    ``settled``:

    * ``hamiltonian(y, y')`` is H;
    * the branch curves are +-sqrt(-t / ``branch_denom``);
    * ``laurent_correction(t_hat, d)`` is the error of the leading pole
      estimate t_hat at signed distance d, ``pole_spacing(|t|)`` the local
      pole-spacing model;
    * ``laurent(t0, h, sign, n)`` builds the pole's two-parameter Laurent
      family, y = d^-p sum_k a_k d^k with d = t - t0, a_0 = ``sign`` (the
      sign of the leading term, +1 for a double pole) and the free
      coefficient a_(2p+2) = h. For n > 2p + 2 it returns three lists of n
      coefficients: a_k and their partial derivatives in t0 and in h;
    * ``laurent_q(a)`` is the q_k of Q = d^-2 sum_k q_k d^k for any list of
      coefficients a_k, Q being the function of y with dH/dt = t dQ/dt
      (Q = y for Painleve I, y^2/2 for Painleve II); q_1 = 0, so Q
      integrates termwise without a logarithm;
    * ``separatrix[direction](t, t_near, y_near)`` is (y, y', V, V_t) at t
      on the separatrix nearest (t_near, y_near) in that direction: the
      branch of y_near's sign, or the toy model's unstable level t y =
      2k - 1/2 nearest t_near y_near. y, y' follow its asymptotics, and small
      deviations d obey d'' = V d (V = dy''/dy), so they e-fold at
      sqrt(V), or d' = V d (V = dy'/dy) for the toy model;
    * ``settled(t, y, y')`` is true once the class key of the run can no
      longer change, so every full-horizon probe stops there: the toy
      model's maxima count is final, or a Painleve run is trapped in the
      stable well, stable for good with no further pole. The well's rule is
      false for t >= 0 and is :func:`~painleve.classify.classify`'s one
      stable rule, read at a negative-direction run's last sample.

    ``fine_tol_divisor`` ties the end-game integration tolerance of a
    bisection to its width, and ``modes`` holds the facts of each search
    mode.
    """

    name: str
    pole_order: int
    rhs_source: tuple[str, ...]
    directions: tuple[Direction, ...]
    modes: Mapping[ModeKind, ModeSpec]
    settled: Callable
    positive_horizon: float = 30.0
    hamiltonian: Callable | None = None
    branch_denom: float | None = None
    laurent_correction: Callable | None = None
    laurent: Callable | None = None
    laurent_q: Callable | None = None
    pole_spacing: Callable | None = None
    separatrix: Mapping[Direction, Callable] = field(default_factory=dict)
    fine_tol_divisor: float = 100.0

    @cached_property
    def rhs(self) -> Callable:
        """``rhs(t, y, y')``, the triple (y', y'', dH/dt) compiled from
        ``rhs_source``; (y', 0, 0) for the toy model."""
        exprs = (*self.rhs_source, "0.0", "0.0")[:3]
        return _compiled(f"def rhs(t, y, yp):\n    return {', '.join(exprs)}\n", "rhs")

    @property
    def first_order(self) -> bool:
        """True for the toy model, the one first-order (and pole-free) system."""
        return not self.pole_order


def _p1_laurent(t0, h, _sign, n):
    # y = sum a_k d^(k-2): (k - 6)(k + 1) a_k = 6 sum_{i=1}^{k-1} a_i a_{k-i}
    # + t0 [k = 4] + [k = 5], so a = 1, 0, 0, 0, -t0/10, -1/6, then a_6 = h
    # free. The t0 and h derivatives follow the recurrence, differentiated.
    a = [1.0, 0.0, 0.0, 0.0, t0 / -10.0, 1.0 / -6.0, h]
    at = [0.0, 0.0, 0.0, 0.0, 1.0 / -10.0, 0.0, 0.0]
    ah = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    for k in range(7, n):
        rev = a[k - 1:0:-1]
        den = (k - 6) * (k + 1)
        a.append(6.0 * sum(map(mul, a[1:k], rev)) / den)
        at.append(12.0 * sum(map(mul, at[1:k], rev)) / den)
        ah.append(12.0 * sum(map(mul, ah[1:k], rev)) / den)
    return a, at, ah


# P-I separatrix: y ~ sqrt(x/6) - x^-2/48 - (49 sqrt6/4608) x^(-9/2), x = -t
_P1_C = 49.0 * math.sqrt(6.0) / 4608.0


def _p1_separatrix(t, _t_near, y_near):
    s = 1.0 if y_near >= 0.0 else -1.0
    x = -t
    y = math.sqrt(x / 6.0) - x**-2 / 48.0 - _P1_C * x**-4.5
    dy_dx = 0.5 / math.sqrt(6.0 * x) + x**-3 / 24.0 + 4.5 * _P1_C * x**-5.5
    y, yp = s * y, -s * dy_dx
    return y, yp, 12.0 * y, 12.0 * yp


def _p2_laurent(t0, h, sign, n):
    # y = sum a_k d^(k-1): (k - 4)(k + 1) a_k = 2 [(a*a*a)_k - 3 a_k]
    # + t0 a_{k-2} + a_{k-3}, so a = sign, 0, -sign t0/6, -sign/4, then
    # a_4 = h free. With s = a*a, (a*a*a)_k - 3 a_k = sign sum_{i=1}^{k-1}
    # a_i a_{k-i} + sum_{m=1}^{k-1} s_m a_{k-m}, and its derivative is
    # 3 sum_{m=1}^{k-1} a'_m s_{k-m}.
    a = [sign, 0.0, sign * t0 / -6.0, sign / -4.0, h]
    at = [0.0, 0.0, sign / -6.0, 0.0, 0.0]
    ah = [0.0, 0.0, 0.0, 0.0, 1.0]
    s = [1.0, 0.0, 2.0 * sign * a[2], 2.0 * sign * a[3], 2.0 * sign * h + a[2] * a[2]]
    for k in range(5, n):
        rev, rev_s = a[k - 1:0:-1], s[k - 1:0:-1]
        conv = sum(map(mul, a[1:k], rev))
        den = (k - 4) * (k + 1)
        a.append((2.0 * (sign * conv + sum(map(mul, s[1:k], rev))) + t0 * a[k - 2] + a[k - 3]) / den)
        at.append((6.0 * sum(map(mul, at[1:k], rev_s)) + a[k - 2] + t0 * at[k - 2] + at[k - 3]) / den)
        ah.append((6.0 * sum(map(mul, ah[1:k], rev_s)) + t0 * ah[k - 2] + ah[k - 3]) / den)
        s.append(2.0 * sign * a[k] + conv)
    return a, at, ah


# P-II separatrix in the negative direction: y ~ sqrt(x/2) - x^(-5/2)/(8 sqrt2), x = -t
_P2_C = 1.0 / (8.0 * math.sqrt(2.0))


def _p2_separatrix(t, _t_near, y_near):
    s = 1.0 if y_near >= 0.0 else -1.0
    x = -t
    y = math.sqrt(x / 2.0) - _P2_C * x**-2.5
    dy_dx = 0.5 / math.sqrt(2.0 * x) + 2.5 * _P2_C * x**-3.5
    y, yp = s * y, -s * dy_dx
    return y, yp, 6.0 * y * y + t, 12.0 * y * yp + 1.0


# ``settled`` of P-I and P-II: with x = -t, E = y'^2/2 + V has E_x = V_x.
# Inside the well, below the barrier top y_m, B = V(y_m) rises faster than E
# and the far wall is closed, so a run there with E < B stays trapped:
# stable, with no more poles. P-I: V = -2y^3 + xy, y_m = sqrt(x/6), B_x = y_m
# > y = E_x; P-II: V = -y^4/2 + xy^2/2, y_m = +-sqrt(x/2), B_x = x/4 > y^2/2
# = E_x. E must lie a share _WELL_MARGIN below B; false for t >= 0.
_WELL_MARGIN = 1e-4


def _p1_trapped(t, y, yp):
    x = -t
    return x > 0.0 and y < (top := math.sqrt(x / 6.0)) and (
        0.5 * yp * yp + y * (x - 2.0 * y * y) < (1.0 - _WELL_MARGIN) * (2.0 * x / 3.0) * top)


def _p2_trapped(t, y, yp):
    x = -t
    return 2.0 * y * y < x and 0.5 * yp * yp + 0.5 * y * y * (x - y * y) < (1.0 - _WELL_MARGIN) * 0.125 * x * x


def _toy_separatrix(t, t_near, y_near):
    # y' = cos(pi t y) repels from the levels t y = c = 2k - 1/2 at the rate
    # V = dy'/dy = -pi t sin(pi t y) ~ pi t, so backward in t they attract: a
    # run back from the series c/t - c/(pi t^3) over 36 e-foldings of pi t
    # lands on the separatrix, where that series misses by up to 4e-2 in t y
    c = 2.0 * round(0.5 * (t_near * y_near + 0.5)) - 0.5
    s = t + 36.0 / (math.pi * t)
    n = math.ceil(4.0 * math.pi * s * (s - t))  # RK4 steps of 1/(4 pi s)
    y, h = c / s - c / (math.pi * s**3), (t - s) / n
    for _ in range(n):
        k1 = math.cos(math.pi * s * y)
        k2 = math.cos(math.pi * (s + 0.5 * h) * (y + 0.5 * h * k1))
        k3 = math.cos(math.pi * (s + 0.5 * h) * (y + 0.5 * h * k2))
        s += h
        y += h * (k1 + 2.0 * k2 + 2.0 * k3 + math.cos(math.pi * s * (y + h * k3))) / 6.0
    u = math.pi * t * y
    yp = math.cos(u)
    return y, yp, -math.pi * t * math.sin(u), -math.pi * math.sin(u) - math.pi**2 * t * yp * (y + t * yp)


def _toy_settled(t, y, _yp):
    # u = t y obeys u' = u/t + t cos(pi u), which is u/t > 0 wherever
    # cos(pi u) = 0: u crosses those levels upward only, and a maximum of y
    # is an upward crossing of some u = 2k + 1/2. Once u' < 0 (here y > 0),
    # u lies inside (2k + 1/2, 2k + 3/2), and any b just above u bars it for
    # good, since t^2 (-cos(pi b)) > b only strengthens as t grows: no
    # further maximum can come.
    return y > 0.0 and y + t * math.cos(math.pi * t * y) < 0.0


_NEG, _POS = Direction.NEGATIVE_T, Direction.POSITIVE_T

PAINLEVE_I = Equation(
    name="p1",
    pole_order=2,
    rhs_source=("yp", "6.0 * y * y + t", "t * yp"),
    directions=(_NEG,),
    modes={
        ModeKind.SLOPE: ModeSpec(_NEG, 0.2, 0.3, 3.0 / 5.0, 1.95, 5, False, "p1_slope"),
        ModeKind.VALUE: ModeSpec(_NEG, -0.1, 0.12, 2.0 / 5.0, 0.9, 4, False, "p1_value"),
    },
    hamiltonian=lambda y, yp: 0.5 * yp * yp - 2.0 * y * y * y,
    branch_denom=6.0,
    laurent_correction=lambda t_hat, d: (t_hat / 5.0) * d**5 + (5.0 / 12.0) * d**6,
    laurent=_p1_laurent,
    laurent_q=lambda a: a,  # Q = y
    # linearized frequency about -sqrt(-t/6) is sqrt(12)*( -t/6 )^(1/4)
    pole_spacing=lambda mag: 2.0 * math.pi / (math.sqrt(12.0) * max(0.3, mag / 6.0) ** 0.25),
    separatrix={_NEG: _p1_separatrix},
    settled=_p1_trapped,
)

PAINLEVE_II = Equation(
    name="p2",
    pole_order=1,
    rhs_source=("yp", "2.0 * y * y * y + t * y", "t * y * yp"),
    directions=(_NEG, _POS),
    modes={
        ModeKind.SLOPE: ModeSpec(_NEG, 0.1, 0.1, 2.0 / 3.0, 0.95, 4, True, "p2_slope"),
        # (c_n / 1.2)^3 - n runs from 0.058 (n = 1) to 1.202 (n = 30)
        ModeKind.VALUE: ModeSpec(_POS, 0.3, 0.08, 1.0 / 3.0, 1.2, 4, False, "p2_value"),
    },
    hamiltonian=lambda y, yp: 0.5 * yp * yp - 0.5 * y * y * y * y,
    branch_denom=2.0,
    laurent_correction=lambda t_hat, d: (t_hat / 3.0) * d**3 + 0.75 * d**4,
    laurent=_p2_laurent,
    laurent_q=lambda a: (0.5 * np.convolve(a, a)[:len(a)]).tolist(),  # Q = y^2/2
    # cascade swings are faster than the Airy frequency sqrt(-t); the
    # 1.7 prefactor matches measured pole gaps with ~2x margin
    pole_spacing=lambda mag: 1.7 / math.sqrt(max(mag, 0.5)),
    # positive direction: the separatrix decays to 0 and deviations obey Airy's d'' = t d
    separatrix={_NEG: _p2_separatrix, _POS: lambda t, _t_near, _y_near: (0.0, 0.0, t, 1.0)},
    settled=_p2_trapped,
    # the default horizon of a plain run; a search probe of x runs one time
    # unit further per critical value at or below |x|
    positive_horizon=40.0,
    # simple poles amplify traversal noise harder
    fine_tol_divisor=1000.0,
)

TOY_MODEL = Equation(
    name="toy",
    pole_order=0,
    rhs_source=("cos(pi * t * y)",),
    directions=(_POS,),
    modes={ModeKind.TOY: ModeSpec(_POS, 0.05, 0.4, 1.0 / 2.0, 1.65, max_index=60)},
    positive_horizon=50.0,
    separatrix={_POS: _toy_separatrix},
    settled=_toy_settled,
)

_BY_NAME = {
    "p1": PAINLEVE_I,
    "p2": PAINLEVE_II,
    "toy": TOY_MODEL,
}


def equation_from_name(name: str) -> Equation:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown equation {name!r}; expected one of {sorted(_BY_NAME)}") from None


@dataclass(frozen=True)
class InitialData:
    """Initial data at t = 0: value y(0) and slope y'(0).

    The slope is ignored by the first-order toy model.
    """

    y0: float
    slope0: float = 0.0


def branch_curve(eq: Equation, t: np.ndarray) -> np.ndarray:
    """Vectorized +branch curve sqrt(-t / branch_denom); NaN where t >= 0."""
    if eq.branch_denom is None:
        raise ValueError("the toy model has no asymptotic branch curves")
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(t < 0.0, np.sqrt(np.maximum(-t, 0.0) / eq.branch_denom), np.nan)


def energy(eq: Equation, y, yp):
    """Conserved-up-to-fluctuations quantity H.

    H = y'^2/2 - 2 y^3 for Painleve I and H = y'^2/2 - y^4/2 for Painleve II.
    Along a trajectory H(x) = H(0) + I(x) holds exactly, with I given by
    :func:`fluctuation_integral`. Accepts scalars or numpy arrays, such as a
    trajectory's ``y`` and ``yp``.
    """
    if eq.hamiltonian is None:
        raise ValueError("energy is defined for the Painleve equations only")
    return eq.hamiltonian(y, yp)


def fluctuation_integral(eq: Equation, traj: "Trajectory") -> np.ndarray:
    """Cumulative fluctuation integral I(x) along the trajectory's path.

    I(x) = int_0^x t y'(t) dt for Painleve I and int_0^x t y y' dt for
    Painleve II, the integral of the third component of ``eq.rhs``. The
    integrator carries it as a state beside (y, y') at the stepper's own
    order, and across each pole adds [t Q] - int Q dt from the pole's
    Laurent series, with dH/dt = t dQ/dt (see ``Equation.laurent``); the
    integrand is analytic off the pole and Q has no 1/(t - t0) term, so the
    integral past the pole is path independent. This returns it at the
    trajectory's samples, ``traj.fluct``.
    """
    if eq.hamiltonian is None:
        raise ValueError("the fluctuation integral is defined for the Painleve equations only")
    return traj.fluct
