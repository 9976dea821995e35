"""Dynamical systems under study, one spec object per equation.

Three systems are supported:

* Painleve I,  y'' = 6 y^2 + t   (movable double poles),
* Painleve II, y'' = 2 y^3 + t y (movable simple poles),
* a first-order toy model, y' = cos(pi t y), which is pole free.

Every fact the pipeline needs about one of them - its right-hand side, the
energy H and the fluctuation jet, the branch curves and the stable
attractor, the pole order and Laurent correction, the pole-spacing model,
the turning point and instability rate, the separatrix asymptotics the
eigenvalue search matches to, the allowed directions and default
horizon, and the search facts of each mode (direction, scan seed, growth
exponent, Richardson order, WKB constant) - lives in its :class:`Equation`
below. The integrator, classifier, eigensolver and CLI read those facts
and never ask which equation they hold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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

    The search integrates in ``direction``, and its critical values grow
    like ``coeff * n**exponent``. The scan starts at ``origin`` with
    ``step``; ``coeff`` is a rough guess that only bounds the scan, so
    results never depend on it. ``order``, ``split_even_odd`` and
    ``constant`` (a :class:`~painleve.asymptotics.WkbConstants` field) drive
    the Richardson extraction; a mode without a closed form has none.
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


@dataclass(frozen=True, eq=False)
class Equation:
    """One supported system and every fact the pipeline needs about it.

    ``rhs(t, y, y')`` returns the pair (y', y''); the first-order toy model
    returns (y', 0) and ignores y'. ``pole_order`` is the order of the
    movable poles (2, 1, or 0 for the pole-free toy model). The toy model
    has no energy, branch curves or poles, so of the callables below it has
    only ``separatrix``:

    * ``hamiltonian(y, y')`` is H, and ``fluct_jet(t, y, y')`` the value and
      first two derivatives of the fluctuation integrand dH/dt;
    * the branch curves are +-sqrt(-t / ``branch_denom``) and the stable
      attractor sits at ``attractor`` times the + branch;
    * ``laurent_correction(t_hat, d)`` is the error of the leading pole
      estimate t_hat at signed distance d, ``pole_spacing(|t|)`` the local
      pole-spacing model;
    * ``turning_point(E)`` is |t| where the branch curve's energy reaches E,
      and ``instability_rate(turn)`` the separatrix's e-folding rate there;
    * ``separatrix[direction](t, t_near, y_near)`` is (y, y', V, V_t) at t
      on the separatrix nearest (t_near, y_near) in that direction: the
      branch of y_near's sign, or the toy model's unstable level t y =
      2k - 1/2 nearest t_near y_near. y, y' follow its asymptotics, and small
      deviations d obey d'' = V d (V = dy''/dy), or d' = V d (V = dy'/dy)
      for the toy model.

    ``fine_tol_divisor`` ties the end-game integration tolerance of a
    bisection to its width, and ``modes`` holds the facts of each search
    mode.
    """

    name: str
    pole_order: int
    rhs: Callable
    directions: tuple[Direction, ...]
    modes: Mapping[ModeKind, ModeSpec]
    positive_horizon: float = 30.0
    hamiltonian: Callable | None = None
    fluct_jet: Callable | None = None
    branch_denom: float | None = None
    attractor: float = 0.0
    laurent_correction: Callable | None = None
    pole_spacing: Callable | None = None
    turning_point: Callable | None = None
    instability_rate: Callable | None = None
    separatrix: Mapping[Direction, Callable] = field(default_factory=dict)
    fine_tol_divisor: float = 100.0

    @property
    def first_order(self) -> bool:
        """True for the toy model, the one first-order (and pole-free) system."""
        return not self.pole_order


def _p1_rhs(t, y, yp):
    return yp, 6.0 * y * y + t


def _p1_jet(t, y, yp):
    # g = t y'
    f = 6.0 * y * y + t          # y''
    fp = 12.0 * y * yp + 1.0     # y'''
    g = t * yp
    gp = yp + t * f
    gpp = 2.0 * f + t * fp
    return g, gp, gpp


# P-I separatrix: y ~ sqrt(x/6) - x^-2/48 - (49 sqrt6/4608) x^(-9/2), x = -t
_P1_C = 49.0 * math.sqrt(6.0) / 4608.0


def _p1_separatrix(t, _t_near, y_near):
    s = 1.0 if y_near >= 0.0 else -1.0
    x = -t
    y = math.sqrt(x / 6.0) - x**-2 / 48.0 - _P1_C * x**-4.5
    dy_dx = 0.5 / math.sqrt(6.0 * x) + x**-3 / 24.0 + 4.5 * _P1_C * x**-5.5
    y, yp = s * y, -s * dy_dx
    return y, yp, 12.0 * y, 12.0 * yp


def _p2_rhs(t, y, yp):
    return yp, 2.0 * y * y * y + t * y


def _p2_jet(t, y, yp):
    # g = t y y'
    f = 2.0 * y * y * y + t * y
    fp = 6.0 * y * y * yp + y + t * yp
    g = t * y * yp
    gp = y * yp + t * (yp * yp + y * f)
    gpp = 2.0 * (yp * yp + y * f) + t * (3.0 * yp * f + y * fp)
    return g, gp, gpp


# P-II separatrix in the negative direction: y ~ sqrt(x/2) - x^(-5/2)/(8 sqrt2), x = -t
_P2_C = 1.0 / (8.0 * math.sqrt(2.0))


def _p2_separatrix(t, _t_near, y_near):
    s = 1.0 if y_near >= 0.0 else -1.0
    x = -t
    y = math.sqrt(x / 2.0) - _P2_C * x**-2.5
    dy_dx = 0.5 / math.sqrt(2.0 * x) + 2.5 * _P2_C * x**-3.5
    y, yp = s * y, -s * dy_dx
    return y, yp, 6.0 * y * y + t, 12.0 * y * yp + 1.0


def _toy_rhs(t, y, _yp):
    return math.cos(math.pi * t * y), 0.0


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


_NEG, _POS = Direction.NEGATIVE_T, Direction.POSITIVE_T

PAINLEVE_I = Equation(
    name="p1",
    pole_order=2,
    rhs=_p1_rhs,
    directions=(_NEG,),
    modes={
        ModeKind.SLOPE: ModeSpec(_NEG, 0.2, 0.3, 3.0 / 5.0, 2.1, 5, False, "p1_slope"),
        ModeKind.VALUE: ModeSpec(_NEG, -0.1, 0.12, 2.0 / 5.0, 1.1, 4, False, "p1_value"),
    },
    hamiltonian=lambda y, yp: 0.5 * yp * yp - 2.0 * y * y * y,
    fluct_jet=_p1_jet,
    branch_denom=6.0,
    attractor=-1.0,
    laurent_correction=lambda t_hat, d: (t_hat / 5.0) * d**5 + (5.0 / 12.0) * d**6,
    # linearized frequency about -sqrt(-t/6) is sqrt(12)*( -t/6 )^(1/4)
    pole_spacing=lambda mag: 2.0 * math.pi / (math.sqrt(12.0) * max(0.3, mag / 6.0) ** 0.25),
    turning_point=lambda e: 6.0 * (0.5 * e) ** (2.0 / 3.0),
    instability_rate=lambda turn: math.sqrt(12.0) * (turn / 6.0) ** 0.25,
    separatrix={_NEG: _p1_separatrix},
)

PAINLEVE_II = Equation(
    name="p2",
    pole_order=1,
    rhs=_p2_rhs,
    directions=(_NEG, _POS),
    modes={
        ModeKind.SLOPE: ModeSpec(_NEG, 0.1, 0.1, 2.0 / 3.0, 1.9, 4, True, "p2_slope"),
        ModeKind.VALUE: ModeSpec(_POS, 0.3, 0.08, 1.0 / 3.0, 1.3, 4, False, "p2_value"),
    },
    hamiltonian=lambda y, yp: 0.5 * yp * yp - 0.5 * y * y * y * y,
    fluct_jet=_p2_jet,
    branch_denom=2.0,
    laurent_correction=lambda t_hat, d: (t_hat / 3.0) * d**3 + 0.75 * d**4,
    # cascade swings are faster than the Airy frequency sqrt(-t); the
    # 1.7 prefactor matches measured pole gaps with ~2x margin
    pole_spacing=lambda mag: 1.7 / math.sqrt(max(mag, 0.5)),
    turning_point=lambda e: math.sqrt(8.0 * e),
    instability_rate=lambda turn: math.sqrt(2.0 * turn),
    # positive direction: the separatrix decays to 0 and deviations obey Airy's d'' = t d
    separatrix={_NEG: _p2_separatrix, _POS: lambda t, _t_near, _y_near: (0.0, 0.0, t, 1.0)},
    # simple poles amplify traversal noise harder
    fine_tol_divisor=1000.0,
)

TOY_MODEL = Equation(
    name="toy",
    pole_order=0,
    rhs=_toy_rhs,
    directions=(_POS,),
    modes={ModeKind.TOY: ModeSpec(_POS, 0.05, 0.4, 1.0 / 2.0, 2.0 ** (5.0 / 6.0), max_index=60)},
    positive_horizon=50.0,
    separatrix={_POS: _toy_separatrix},
)

_BY_NAME = {
    "p1": PAINLEVE_I,
    "painleve-1": PAINLEVE_I,
    "p2": PAINLEVE_II,
    "painleve-2": PAINLEVE_II,
    "toy": TOY_MODEL,
}


def equation_from_name(name: str) -> Equation:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(f"unknown equation {name!r}; expected one of {sorted(set(_BY_NAME))}") from None


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
    :func:`fluctuation_integral`. Accepts scalars or numpy arrays; meant for
    real states only (it is not evaluated on detours).
    """
    if eq.hamiltonian is None:
        raise ValueError("energy is defined for the Painleve equations only")
    return eq.hamiltonian(y, yp)


# Samples per block of fluctuation_integral: one pass over a whole cascade
# (about 2e4 samples) would hold a dozen trajectory-long temporaries at once.
_FLUCT_BLOCK = 2048


def fluctuation_integral(eq: Equation, traj: "Trajectory") -> np.ndarray:
    """Cumulative fluctuation integral I(x) along the trajectory's path.

    I(x) = int_0^x t y'(t) dt for Painleve I and int_0^x t y y' dt for
    Painleve II, accumulated along the same path the integrator took
    (detour arcs included; the integrand is analytic there, so chordal
    quadrature between stored samples is path-equivalent). Everything in the
    integrand's jet follows from (t, y, y') through the equation itself, so
    a stored sample carries it in full. Returned values are sampled at the
    trajectory's real-axis points.
    """
    jet_of = eq.fluct_jet
    if jet_of is None:
        raise ValueError("the fluctuation integral is defined for the Painleve equations only")
    ts, ys, yps = traj.t, traj.y, traj.yp
    n = len(ts)
    running = np.zeros(n)
    acc = 0j
    for lo in range(0, n - 1, _FLUCT_BLOCK):
        hi = min(lo + _FLUCT_BLOCK, n - 1)
        t = ts[lo:hi + 1]
        g, gp, gpp = jet_of(t, ys[lo:hi + 1], yps[lo:hi + 1])
        h = np.diff(t)
        # The carried sum leads the block, so the cumulative sum adds the
        # steps in the same order as a running total would.
        steps = np.empty(hi - lo + 1, dtype=complex)
        steps[0] = acc
        # Two-point quintic Hermite rule: exact through degree 5, O(h^7) error.
        steps[1:] = (
            0.5 * h * (g[:-1] + g[1:])
            - h * h / 10.0 * (gp[1:] - gp[:-1])
            + h * h * h / 120.0 * (gpp[:-1] + gpp[1:])
        )
        sums = np.cumsum(steps)
        running[lo + 1:hi + 1] = sums[1:].real
        acc = sums[-1]
    return running[traj.real_indices()]
