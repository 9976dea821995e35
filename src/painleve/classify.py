"""Terminal-behavior classification of trajectories.

The classifier supplies the discriminant the eigenvalue search bisects on:
in the negative direction every trajectory eventually either keeps running
through movable poles (cascade) or settles into stable oscillation about the
attractor (-sqrt(-t/6) for Painleve I, the axis y = 0 for Painleve II).
Separatrix tags identify trajectories that track one of the unstable branch
curves +-sqrt(-t/6) or +-sqrt(-t/2); they validate converged eigenfunctions
and are never produced by generic initial data.

In the positive direction (Painleve II) the decaying separatrix is flanked
by solutions that blow up through the next pole with opposite signs, so the
classes there are DecayToZero and DivergentPositive/Negative.

The branch curves and the attractor come from the equation's spec
(``branch_denom`` and ``attractor``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .equations import Direction, Equation, branch_curve
from .integrator import Trajectory

__all__ = [
    "ClassificationError",
    "ClassTag",
    "SolutionClass",
    "classify",
    "count_toy_maxima",
    "toy_maxima",
]

SEPARATRIX_BAND = 1e-3     # relative band around a branch curve
OSCILLATION_BAND = 0.25    # windowed-mean band, in units of the branch scale
DECAY_DIP = 2.5e-4         # |y| depth certifying the decaying separatrix
DECAY_NEIGHBORHOOD = 1e-2  # |y| must stay below this for >= DECAY_SPAN around the dip
DECAY_SPAN = 0.5


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


def _window_default(traj: Trajectory) -> tuple[float, float]:
    h = traj.terminal_t
    if traj.direction is Direction.NEGATIVE_T:
        return (h, h + 10.0)
    return (h - 10.0, h)


def classify(
    eq: Equation,
    traj: Trajectory,
    window: tuple[float, float] | None = None,
) -> SolutionClass:
    """Assign the trajectory its terminal behavior class.

    The decision is made on the trailing window (default: the last 10 time
    units before the horizon; pass ``window`` to inspect a different
    stretch, e.g. when validating a separatrix whose trackable extent is
    shorter). Criteria, in order: a pole inside the window (or a pole-cap
    truncation) means PoleCascade; tight tracking of a branch curve means
    Separatrix; a windowed mean near the stable attractor means
    StableOscillation. Positive direction: a certified dip of |y| below
    ``DECAY_DIP`` means DecayToZero, otherwise the sign of the final
    blow-up decides DivergentPositive/Negative.

    Raises :class:`ClassificationError` when nothing fires; the caller sees
    the ambiguity rather than a guess.
    """
    if eq.first_order:
        raise ValueError("toy-model trajectories are characterized by count_toy_maxima")
    if traj.direction is Direction.NEGATIVE_T:
        return _classify_negative(eq, traj, window)
    return _classify_positive(eq, traj, window)


def _classify_negative(eq, traj, window):
    lo, hi = window if window is not None else _window_default(traj)
    if traj.stopped_by == "pole-cap":
        return SolutionClass(ClassTag.POLE_CASCADE, len(traj.poles), (lo, hi))
    if any(lo <= p.location <= hi for p in traj.poles):
        return SolutionClass(ClassTag.POLE_CASCADE, len(traj.poles), (lo, hi))

    rt, ry = traj.real_t(), traj.real_y()
    m = (rt >= lo) & (rt <= hi)
    if m.sum() < 4:
        raise ClassificationError(
            f"window [{lo:.3g}, {hi:.3g}] holds only {int(m.sum())} real samples"
        )
    tw, yw = rt[m], ry[m]
    bw = branch_curve(eq, tw)
    n_before = sum(1 for p in traj.poles if p.location > hi)

    plus_dev = np.max(np.abs(yw - bw) / bw)
    minus_dev = np.max(np.abs(yw + bw) / bw)
    if plus_dev <= SEPARATRIX_BAND:
        return SolutionClass(ClassTag.SEPARATRIX_PLUS, n_before, (lo, hi))
    if minus_dev <= SEPARATRIX_BAND:
        return SolutionClass(ClassTag.SEPARATRIX_MINUS, n_before, (lo, hi))

    center = eq.attractor * bw.mean()
    if abs(yw.mean() - center) <= OSCILLATION_BAND * bw.mean():
        return SolutionClass(ClassTag.STABLE_OSCILLATION, len(traj.poles), (lo, hi))
    raise ClassificationError(
        f"no criterion fired on [{lo:.3g}, {hi:.3g}]: mean y = {yw.mean():.4g}, "
        f"branch scale {bw.mean():.4g}, branch deviations {plus_dev:.3g}/{minus_dev:.3g}"
    )


def _classify_positive(eq, traj, window):
    if Direction.POSITIVE_T not in eq.directions:
        raise ValueError("positive-direction classification applies to Painleve II")
    rt, ry = traj.real_t(), traj.real_y()
    ay = np.abs(ry)

    # Decay certificate: |y| dips below DECAY_DIP and stays inside the
    # DECAY_NEIGHBORHOOD for a finite span around the dip. A double-precision
    # trajectory cannot hold the decaying branch forever (deviations grow like
    # exp((2/3) t^(3/2))), so the certificate is a deep sustained dip, not a
    # tail condition at the horizon.
    dips = np.nonzero(ay <= DECAY_DIP)[0]
    for i in dips:
        j0 = i
        while j0 > 0 and ay[j0 - 1] <= DECAY_NEIGHBORHOOD:
            j0 -= 1
        j1 = i
        while j1 < len(ay) - 1 and ay[j1 + 1] <= DECAY_NEIGHBORHOOD:
            j1 += 1
        if rt[j1] - rt[j0] >= DECAY_SPAN:
            t_dip = rt[i]
            n_before = sum(1 for p in traj.poles if p.location < t_dip)
            return SolutionClass(ClassTag.DECAY_TO_ZERO, n_before, (rt[j0], rt[j1]))

    if traj.poles:
        last = traj.poles[-1]
        before = rt < last.location
        sign = last.approach_sign if not before.any() else (1 if ry[before][-1] >= 0 else -1)
    elif len(ry) > 0:
        sign = 1 if ry[-1] >= 0 else -1
    else:
        raise ClassificationError("empty trajectory")
    lo, hi = window if window is not None else _window_default(traj)
    tag = ClassTag.DIVERGENT_POSITIVE if sign > 0 else ClassTag.DIVERGENT_NEGATIVE
    return SolutionClass(tag, len(traj.poles), (lo, hi))


def toy_maxima(traj: Trajectory) -> np.ndarray:
    """Times of the local maxima of a toy-model trajectory on t > 0: the
    samples after which y' = cos(pi t y) changes sign from + to -."""
    if not traj.equation.first_order:
        raise ValueError("maxima are located on toy-model trajectories only")
    rt, ry = traj.real_t(), traj.real_y()
    pos = np.cos(math.pi * rt * ry) > 0.0
    return rt[:-1][pos[:-1] & ~pos[1:]]


def count_toy_maxima(traj: Trajectory) -> int:
    """Number of local maxima of a toy-model trajectory on t > 0
    (see :func:`toy_maxima`)."""
    return len(toy_maxima(traj))
