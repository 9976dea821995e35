"""Terminal-behavior classification of trajectories.

The classifier reads the generic classes of a trajectory, the open families
that the critical initial data separate. In the negative direction every
trajectory eventually either keeps running through movable poles (cascade)
or is trapped in the stable potential well (about -sqrt(-t/6) for Painleve
I, the axis y = 0 for Painleve II), where it oscillates with no further
pole. ``Equation.settled`` is the exact rule for the well, read at the run's
last sample. In the positive direction (Painleve II) a run blows up through
its last pole from above or from below (DivergentPositive/Negative).

Separatrix tags, for the measure-zero runs between two families (tracking
one of the unstable branch curves +-sqrt(-t/6) or +-sqrt(-t/2), or decaying
to zero in the positive direction), are given by
:func:`~painleve.eigensolver.separatrix_check` alone; they validate
converged eigenfunctions and are never produced by generic initial data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .equations import Direction, Equation
from .integrator import Trajectory

__all__ = [
    "ClassificationError",
    "ClassTag",
    "SolutionClass",
    "classify",
    "count_toy_maxima",
    "toy_maxima",
]


class ClassificationError(RuntimeError):
    """No classification criterion fired for this trajectory."""


class ClassTag(enum.Enum):
    SEPARATRIX_PLUS = "separatrix+"
    SEPARATRIX_MINUS = "separatrix-"
    STABLE_OSCILLATION = "stable-oscillation"
    POLE_CASCADE = "pole-cascade"
    DECAY_TO_ZERO = "decay-to-zero"
    DIVERGENT_POSITIVE = "divergent+"
    DIVERGENT_NEGATIVE = "divergent-"


@dataclass(frozen=True)
class SolutionClass:
    tag: ClassTag
    pole_count: int
    confidence_window: tuple[float, float]


def classify(eq: Equation, traj: Trajectory) -> SolutionClass:
    """Assign the trajectory of ``eq`` its generic terminal class.

    Each class counts all the run's poles. Negative direction, with the
    window of the last 10 time units before its end: a run stopped by its
    pole cap is a PoleCascade; a run trapped in the stable well at its last
    sample (``eq.settled``, which also ends a run stopped as 'settled') is a
    StableOscillation; a pole inside the window makes any other run a
    PoleCascade. Positive direction, with the window of the last 10 time
    units up to its end: the sign from which the run approaches its last
    pole (of y at its end if it has none) decides
    DivergentPositive/Negative. Separatrix and decay tags come from
    :func:`~painleve.eigensolver.separatrix_check` alone.

    Raises :class:`ClassificationError` when no negative-direction rule
    fires; the caller sees the ambiguity rather than a guess. A trajectory
    of another equation than ``eq``, or of the toy model, raises ValueError.
    """
    if eq is not traj.equation:
        raise ValueError(f"the trajectory is of {traj.equation.name}, not {eq.name}")
    if eq.first_order:
        raise ValueError("toy-model trajectories are characterized by count_toy_maxima")
    if traj.direction is Direction.NEGATIVE_T:
        return _classify_negative(eq, traj)
    return _classify_positive(traj)


def _classify_negative(eq, traj):
    window = (traj.terminal_t, traj.terminal_t + 10.0)
    if traj.stopped_by == "pole-cap":
        return SolutionClass(ClassTag.POLE_CASCADE, len(traj.poles), window)
    if eq.settled(traj.t[-1], traj.y[-1], traj.yp[-1]):
        return SolutionClass(ClassTag.STABLE_OSCILLATION, len(traj.poles), window)
    if any(window[0] <= p.location <= window[1] for p in traj.poles):
        return SolutionClass(ClassTag.POLE_CASCADE, len(traj.poles), window)
    raise ClassificationError(
        f"the run is not trapped in the stable well at its end, t = {traj.terminal_t:.6g}, "
        f"and has no pole in [{window[0]:.3g}, {window[1]:.3g}]"
    )


def _classify_positive(traj):
    if traj.poles:
        sign = traj.poles[-1].approach_sign
    else:
        sign = 1 if traj.y[-1] >= 0 else -1
    tag = ClassTag.DIVERGENT_POSITIVE if sign > 0 else ClassTag.DIVERGENT_NEGATIVE
    return SolutionClass(tag, len(traj.poles), (traj.terminal_t - 10.0, traj.terminal_t))


def toy_maxima(traj: Trajectory) -> np.ndarray:
    """Times of the local maxima of a toy-model trajectory on t > 0.

    With u = t y, y' = cos(pi u), so a maximum is an upward crossing of a
    level u = 2k + 1/2, and u crosses those levels upward only (there
    u' = u/t > 0). The maxima are therefore read from the highest such level
    below u at each sample, not from sign changes of y' between samples,
    which one long step can hide by crossing two levels. Each maximum is
    timed at the sample before its crossing, once per level crossed.
    """
    if not traj.equation.first_order:
        raise ValueError("maxima are located on toy-model trajectories only")
    rt, ry = traj.t, traj.y
    level = np.maximum.accumulate(np.floor((rt * ry - 0.5) / 2.0))
    return np.repeat(rt[:-1], np.diff(level).astype(int))


def count_toy_maxima(traj: Trajectory) -> int:
    """Number of local maxima of a toy-model trajectory on t > 0
    (see :func:`toy_maxima`)."""
    return len(toy_maxima(traj))
