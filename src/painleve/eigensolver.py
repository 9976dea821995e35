"""Location of the critical initial conditions by grid scan and asymptotic
matching.

A separatrix initial condition is a boundary between two open families of
generic behaviors, so it is bracketed by a binary discriminant:

* negative direction (Painleve I both modes, Painleve II slope mode):
  {pole cascade} vs {stable oscillation};
* positive direction (Painleve II value mode): the sign of the (n+1)-th
  blow-up, read off the recorded pole approach signs;
* toy model: the number of maxima of the solution, which rises by one
  across each critical value.

A scan at a coarse integration tolerance finds the brackets. The end game
then switches to a continuous discriminant: the deviation from the
separatrix at a matching time T, projected onto the growing mode. The
scan's own records of the two bracket ends pick the first T (a bracket of
:func:`scan_brackets` carries them into :func:`bisect`), and a
bracketing Illinois search finds its root in passes at later and later T,
with probes that stop at T instead of running through the whole pole
cascade or through the toy model's maxima. The binary discriminant stays
the ground truth: two full-horizon probes a bracket width apart must still
be one flip apart around the root (the certificate). A failed match or
certificate raises :class:`BisectionError`. One rule, :func:`_flip_poles`,
reads off the flip and the pole count for the bracket ends and the
certificate. Every full-horizon probe ends once its class key is final
(``Equation.settled``, or its pole cap).

The direction, scan seed and growth law of each search mode, and the
separatrix asymptotics of each equation, come from the equation's spec;
the instability rate is sqrt(V) of the separatrix. Every integration,
:func:`separatrix_check`'s too, runs through :func:`_run`, which sizes a
full-horizon probe's pole cap and horizon from its own datum by the
pole-count law, so ``bisect``'s ``index`` is only a label, and its relative
tolerance is the one integration setting a caller of the search chooses.

The search never asks the classifier to *detect* a separatrix (a
measure-zero event): :func:`~painleve.classify.classify` reads generic
classes only, and separatrix and decay tags come from
:func:`separatrix_check` alone, which validates converged records.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .classify import ClassificationError, ClassTag, SolutionClass, classify, count_toy_maxima, toy_maxima
from .equations import TOY_MODEL, Direction, Equation, InitialData, ModeKind, ModeSpec, branch_curve
from .integrator import IntegrationConfig, IntegrationError, integrate

__all__ = [
    "BisectionError",
    "EigenvalueRecord",
    "ModeKind",
    "PartialTableError",
    "SearchMode",
    "bisect",
    "eigen_table",
    "scan_brackets",
    "separatrix_check",
    "toy_eigen_table",
]


class BisectionError(RuntimeError):
    """A bracket could not be resolved: its ends or the certificate are not
    one flip apart, a probe's class is neither side's, or matching failed."""

    def __init__(self, message: str, probe: float | None = None):
        super().__init__(message)
        self.probe = probe


class PartialTableError(RuntimeError):
    """Table construction failed mid-way; carries the completed records."""

    def __init__(self, message: str, records: list["EigenvalueRecord"], failed_index: int):
        super().__init__(message)
        self.records = records
        self.failed_index = failed_index


@dataclass(frozen=True)
class SearchMode:
    kind: ModeKind
    fixed_value: float = 0.0

    @classmethod
    def coerce(cls, mode: "SearchMode | ModeKind | str") -> "SearchMode":
        return mode if isinstance(mode, SearchMode) else cls(ModeKind(mode))


@dataclass(frozen=True)
class EigenvalueRecord:
    index: int
    value: float
    bracket_width: float
    pole_count: int
    mode: SearchMode


def _spec(eq: Equation, mode: SearchMode) -> ModeSpec:
    if mode.kind not in eq.modes:
        names = ", ".join(kind.value for kind in eq.modes)
        raise ValueError(f"{eq.name} has no {mode.kind.value} mode; its modes are: {names}")
    return eq.modes[mode.kind]


def _initial_data(mode: SearchMode, x: float) -> InitialData:
    if mode.kind is ModeKind.SLOPE:
        return InitialData(mode.fixed_value, x)
    if mode.kind is ModeKind.VALUE:
        return InitialData(x, mode.fixed_value)
    return InitialData(x)


# rel_tol of the scan and of its bracket-end probes; perfbench/workloads.py
# keeps a copy of it.
_COARSE = 1e-8


def _check_tol(tol: float, rel_tol: float) -> None:
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol = {rel_tol} must be positive")
    if not math.isfinite(tol):
        raise ValueError(f"tol = {tol} must be finite")
    if tol < 10.0 * rel_tol:
        raise ValueError(f"tol = {tol} is below 10 * rel_tol = {10 * rel_tol}")


def _check_interval(name: str, interval) -> None:
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"{name} {tuple(interval)} must be a finite nonempty interval")


def _fine_rel_tol(eq: Equation, rel_tol: float, tol: float) -> float:
    # Flip points move by ~3e3 * rel_tol for the second equation and ~1e2 *
    # rel_tol for the first, so the end game runs tight enough for tol to
    # be meaningful.
    return max(min(1e-10, rel_tol, tol / eq.fine_tol_divisor), 1e-13)


def _run(eq, mode, x, rel_tol: float, t_stop: float | None = None):
    """Trajectory of the trial datum x at rel_tol; a run stopped by step
    underflow raises IntegrationError. With ``t_stop`` the run stops there
    under the default pole cap. Without it the run is a full-horizon probe,
    sized from x alone by the pole-count law: N = (|x| / coeff)^(1/p) + 1,
    rounded down, bounds the number of critical values at or below |x|. In
    the negative direction the cap is N // 2 + 2: the n-th separatrix
    crosses n // 2 poles and stable data no more (measured, not proven), so
    a cascade outruns them. In the positive direction it is N + 1, past the
    n + 1 blow-ups that tell the sides of any c_n <= |x|. The horizon is the
    integrator's default for the direction, one time unit further per
    critical value. A full-horizon probe ends once ``settled`` or at its
    cap, where its class is final; one that reaches its horizon instead has
    no final class and raises IntegrationError."""
    spec, until = _spec(eq, mode), eq.settled if t_stop is None else None
    cfg = IntegrationConfig(rel_tol, t_stop)
    if t_stop is None:
        n = int(min(abs(x) / spec.coeff, 1e6) ** (1.0 / spec.exponent)) + 1  # 1e6 keeps the power finite
        sigma = spec.direction.sign
        cfg = IntegrationConfig(rel_tol, cfg.resolved_horizon(eq, spec.direction) + sigma * n,
                                n // 2 + 2 if sigma < 0.0 else n + 1)
    traj = integrate(eq, _initial_data(mode, x), spec.direction, cfg, until=until)
    if traj.stopped_by == "step-underflow":
        raise IntegrationError(f"probe x = {x!r} stopped by step underflow at t = {traj.terminal_t:.6g}")
    if until is not None and traj.stopped_by == "horizon":
        raise IntegrationError(f"probe x = {x!r} reached its horizon t = {traj.terminal_t:.6g} before its "
                               "class was final")
    return traj


def _class_key(eq, traj):
    """Class key of a probe and its pole count: the toy model's maxima count
    (no poles), the blow-up signature in the positive direction (its pole
    count needs the other bracket end, :func:`_flip_poles`), or cascade /
    stable as :func:`classify` reads them."""
    if eq.first_order:
        return count_toy_maxima(traj), 0
    if traj.direction is Direction.POSITIVE_T:
        return _events(traj)[1], None
    cls = classify(eq, traj)
    return "stable" if cls.tag is ClassTag.STABLE_OSCILLATION else "cascade", cls.pole_count


_Record = namedtuple("_Record", "x traj key poles")  # a probe of the trial datum x


def _record(eq, mode, x, rel_tol):
    """The record of x: its full-horizon run at rel_tol and its class key."""
    traj = _run(eq, mode, x, rel_tol)
    return _Record(x, traj, *_class_key(eq, traj))


def _keys_differ(a, b) -> bool:
    if isinstance(a, tuple):
        n = min(len(a), len(b))
        return a[:n] != b[:n]
    return a != b


def _flip_poles(lo, hi) -> int | None:
    """Pole count of the separatrix between the records lo < hi, or None
    unless their keys are one flip apart: the toy model's maxima count rises
    by exactly 1 (no poles); blow-up signatures differ past the events they
    share; otherwise one side cascades and the count is the stable side's."""
    if isinstance(lo.key, int):
        return 0 if hi.key - lo.key == 1 else None
    if not _keys_differ(lo.key, hi.key):
        return None
    if isinstance(lo.key, tuple):
        return _shared_events(lo.key, hi.key)
    return lo.poles if lo.key == "stable" else hi.poles


def _walk(eq, mode, x, end, step):
    """Record x, x + step(), ... up to ``end`` (either side of x) at _COARSE
    and yield each pair of neighbouring records whose keys differ, lower first.

    ``step`` is called before every step, so the consumer can change it
    between flips.
    """
    prev = _record(eq, mode, x, _COARSE)
    while (end - x) * (h := step()) > 0.0:
        nxt = x + h
        if (nxt - end) * h > 0.0:
            nxt = end
        if nxt == x:
            break
        cur = _record(eq, mode, nxt, _COARSE)
        if _keys_differ(prev.key, cur.key):
            yield (prev, cur) if h > 0.0 else (cur, prev)
        x, prev = nxt, cur


class _Bracket(tuple):
    """(lo, hi) of a scan, with the scan's records of its two ends (``ends``)
    and the (eq, mode) it was scanned for (``search``). A copy or pickle is
    the plain tuple (lo, hi)."""

    def __new__(cls, eq, mode, lo, hi):
        self = super().__new__(cls, (lo.x, hi.x))
        self.search, self.ends = (eq, mode), (lo, hi)
        return self

    def __reduce__(self):
        return tuple, (tuple(self),)


def scan_brackets(
    eq: Equation,
    mode: SearchMode | ModeKind | str,
    search_range: tuple[float, float],
    step: float,
) -> list[tuple[float, float]]:
    """Brackets [x, x+step] on which the discriminant class flips.

    The k-th returned bracket contains the k-th eigenvalue inside the range.
    Two eigenvalues closer than the step cannot be separated (the class
    returns to itself); a warning is emitted when detected brackets crowd
    within two steps of each other, which signals that risk.

    Each bracket is a (lo, hi) tuple that also holds the scan's records of
    its two ends, which :func:`bisect` reuses instead of probing them again:
    two trajectories of a few kB to tens of kB each (a stable end stops in
    the well). A copy or pickle of it is a plain tuple and drops them.
    """
    mode = SearchMode.coerce(mode)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step = {step} must be positive and finite")
    _check_interval("search range", search_range)
    lo, hi = search_range
    brackets = [_Bracket(eq, mode, a, b) for a, b in _walk(eq, mode, lo, hi, lambda: step)]
    for (a0, _), (b0, _) in zip(brackets, brackets[1:]):
        if b0 - a0 < 2.0 * step:
            warnings.warn(
                f"brackets at {a0:.6g} and {b0:.6g} are within two scan steps; "
                "eigenvalue pairs inside one step would go undetected - shrink the step",
                stacklevel=2,
            )
            break
    return brackets


class _Unmatched(Exception):
    """The matched end game cannot go on; the message says why."""


def _illinois(g, a, ga, b, gb, stop):
    """Root of g between a and b (ga = g(a), gb = g(b) of opposite signs) by Illinois
    regula falsi, once a step or the bracket is below ``stop``; raises _Unmatched after 40 steps."""
    x_old, side = math.inf, 0
    for _ in range(40):
        x = b - gb * (b - a) / (gb - ga)
        gx = g(x)
        if (gx > 0.0) == (gb > 0.0):
            b, gb, ga, side = x, gx, 0.5 * ga if side == 1 else ga, 1
        else:
            a, ga, gb, side = x, gx, 0.5 * gb if side == -1 else gb, -1
        if gx == 0.0 or abs(x - x_old) < stop or abs(b - a) < stop:
            return x
        x_old = x
    raise _Unmatched(f"Illinois did not converge in ({a:.12g}, {b:.12g}) in 40 steps")


def _shared_events(sig_a, sig_b) -> int:
    """Number of leading events two signatures share."""
    return next((i for i, (p, q) in enumerate(zip(sig_a, sig_b)) if p != q), min(len(sig_a), len(sig_b)))


def _events(traj):
    """Times and signature of the events a probe's class key counts: its
    poles, signed by the blow-up, or the toy model's maxima."""
    if traj.equation.first_order:
        times = toy_maxima(traj)
        return times, (1,) * len(times)
    return np.array([p.location for p in traj.poles]), tuple(p.approach_sign for p in traj.poles)


def _projection(at, direction, y, yp):
    """Share g of the growing mode in the deviation d = y - y_sep of (y, yp)
    from the separatrix ``at`` = (y_sep, y_sep', V, V_t), and its growth rate:
    for d'' = V d, g = d' + (sigma sqrt(V) + V_t / (4 V)) d grows at sqrt(V);
    for d' = V d (yp None) g = d grows at V. Raises _Unmatched where V <= 0."""
    y_sep, yp_sep, v, v_t = at
    if v <= 0.0:
        raise _Unmatched(f"V = {v:.3g} <= 0 on the separatrix: no growing mode")
    if yp is None:
        return y - y_sep, v
    return (yp - yp_sep) + (direction.sign * math.sqrt(v) + v_t / (4.0 * v)) * (y - y_sep), math.sqrt(v)


def _axis_states(traj, u, times, n_behind):
    """y, y' (None for a first-order equation) at the times sigma * u,
    interpolated between neighbouring samples; NaN across a pole (from a
    detour's entry to its exit) or where other than n_behind of the event
    ``times`` lie behind."""
    sigma = traj.direction.sign
    s = sigma * traj.t
    i = np.clip(np.searchsorted(s, u, side="right") - 1, 0, len(s) - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (u - s[i]) / (s[i + 1] - s[i])
    behind = np.searchsorted(sigma * times, u)
    entries = [p.entry_index for p in traj.poles]
    f[np.isin(i, entries) | (f < 0.0) | (f > 1.0) | (behind != n_behind)] = np.nan
    lerp = lambda v: v[i] + f * (v[i + 1] - v[i])  # noqa: E731
    return lerp(traj.y), None if traj.yp is None else lerp(traj.yp)


def _matching_start(eq, ends):
    """((T, y), at, events behind, g at each end) at the last T at which both
    bracket ends have states (not across a pole) behind the events they
    share, with opposite signs of g on the separatrix nearest (T, y), y
    their mean; ``at`` is that separatrix's evaluation at T, which the end
    game reuses. Each T is tried once. Raises _Unmatched if there is none."""
    direction = ends[0].direction
    events = [_events(tr) for tr in ends]
    shared = _shared_events(*(sig for _, sig in events))
    u = np.unique(direction.sign * np.concatenate([tr.t for tr in ends]))[::-1]
    states = [_axis_states(tr, u, times, shared) for tr, (times, _) in zip(ends, events)]
    y_mid = 0.5 * (states[0][0] + states[1][0])
    for k in np.nonzero((u > 0.0) & np.isfinite(y_mid))[0]:
        t = direction.sign * float(u[k])
        at = eq.separatrix[direction](t, t, float(y_mid[k]))
        try:
            g_a, g_b = (_projection(at, direction, y[k], None if yp is None else yp[k])[0]
                        for y, yp in states)
        except _Unmatched:
            continue
        if g_a * g_b < 0.0:
            return (t, float(y_mid[k])), at, shared, float(g_a), float(g_b)
    raise _Unmatched("no matching time: the bracket ends never lie on opposite sides of the separatrix")


_SHRINK = 1e4  # each later matched bracket is this much narrower than the last
_MARGIN = 3.0  # its ends deviate this much less than the last bracket's nearer end did
_STOP = 0.1  # the first pass stops below this share of the next bracket


def _matched_root(eq, mode, rel_tol, fine_rel_tol, bracket, ends, tol):
    """Separatrix datum in the scan bracket by root-finding on g
    (:func:`_projection`) at a matching time T, with probes that stop at T.
    The first pass only places the next bracket, so it runs at the caller's
    tolerance. Each later pass centres a narrower bracket on the last root
    (widened by 4 while the g of its ends share a sign, but never past the
    last pass's bracket), matches at a later T and runs at the fine
    tolerance down to tol / 20. The matching error shrinks at least as fast
    as deviations grow, so the passes end once the root moves by less than
    that growth times tol / 4. A failed match raises BisectionError.

    Each distinct T's separatrix is evaluated once within the call: the one
    :func:`_matching_start` matched with serves the first pass's g and the
    next T's predictor, and each later pass's g serves the predictor after
    it. Only the predictor's midpoint, where no probe matches, is evaluated
    on its own.
    """
    direction, sigma = ends[0].direction, ends[0].direction.sign
    seps = {}  # this call's separatrix evaluations, by T

    def sep(t):
        """The separatrix at T = t, evaluated once per T within the call:
        the toy model's is a backward run."""
        if t not in seps:
            seps[t] = eq.separatrix[direction](t, *point)
        return seps[t]

    def g(t, rtol):
        """g at T = t of a trial datum, probed at rtol, against the
        separatrix's one evaluation at t."""
        at = sep(t)

        def g_t(x):
            traj = _run(eq, mode, x, rtol, t)
            n = len(_events(traj)[1])
            if traj.stopped_by != "horizon" or traj.terminal_t != t or n != n_before:
                raise _Unmatched(f"the short probe of x = {x:.12g} ended by {traj.stopped_by} at t = "
                                 f"{traj.terminal_t:.6g} behind {n} events, not at T = {t:.6g} "
                                 f"behind {n_before}")
            yp = None if traj.yp is None else traj.yp[-1]
            return _projection(at, direction, traj.y[-1], yp)[0]
        return g_t

    yp0 = None if eq.first_order else 0.0
    rate = lambda t: _projection(sep(t), direction, 0.0, yp0)[1]  # noqa: E731
    lo, hi = bracket
    width = (hi - lo) / _SHRINK
    try:
        point, at, n_before, g_lo, g_hi = _matching_start(eq, ends)
        t_match = point[0]
        seps[t_match] = at
        root = _illinois(g(t_match, rel_tol), lo, g_lo, hi, g_hi, _STOP * width)
        while True:
            near, t_last, bound = min(root - lo, hi - root), t_match, hi - lo
            while True:
                step = math.log(max(2.0 * near / (_MARGIN * width), 1.0))
                # sqrt(V) rises along the run: step with its value at the far end
                t_match = t_last + sigma * step / rate(t_last + sigma * step / rate(t_last))
                lo, hi = root - 0.5 * width, root + 0.5 * width
                g_t = g(t_match, fine_rel_tol)
                g_lo, g_hi = g_t(lo), g_t(hi)
                if g_lo * g_hi < 0.0:
                    break
                if 4.0 * width > bound:
                    raise _Unmatched(f"g at T = {t_match:.6g} has one sign on ({lo:.12g}, {hi:.12g}) at the "
                                     "widening bound")
                width *= 4.0
            last = root
            root = _illinois(g_t, lo, g_lo, hi, g_hi, tol / 20.0)
            if abs(root - last) <= math.exp(step) * tol / 4.0:
                return root
            width /= _SHRINK
    except _Unmatched as exc:
        raise BisectionError(f"matched end game in {bracket} failed: {exc}") from exc


def bisect(
    eq: Equation,
    mode: SearchMode | ModeKind | str,
    bracket: tuple[float, float],
    tol: float = 1e-9,
    rel_tol: float = 1e-10,
    index: int = 1,
) -> EigenvalueRecord:
    """Locate the critical value inside one bracket to the requested width:
    take the records of its two ends at the scan tolerance and run
    :func:`_end_game`. A bracket of :func:`scan_brackets` for this same
    equation and mode brings its scan's records along; any other bracket
    has its ends probed here. Every probe is sized from its datum, so
    ``index`` only labels the record. A bracket that is not a finite
    interval with lo < hi raises ValueError.
    """
    mode = SearchMode.coerce(mode)
    _check_interval("bracket", bracket)
    _check_tol(tol, rel_tol)
    if isinstance(bracket, _Bracket) and bracket.search[0] is eq and bracket.search[1] == mode:
        lo, hi = bracket.ends
    else:
        lo, hi = (_record(eq, mode, x, _COARSE) for x in bracket)
    return _end_game(eq, mode, lo, hi, tol, rel_tol, index)


def _end_game(eq, mode, lo, hi, tol, rel_tol, index):
    """Critical value between the scan-tolerance records lo < hi of a
    bracket's ends, one flip apart; their trajectories start the matched end
    game (:func:`_matched_root`), whose first pass runs at rel_tol. Its first
    T can lie past the stable end's stop in the well, so that end runs again
    to a time unit past the other's first unshared pole, if there is one;
    only its last step is clipped, so every earlier sample is the full run's.
    Fine-tolerance probes at value -+ w/2, with w the bracket width halved
    until it is at most ``tol``, must still be one flip apart (the
    certificate). A failed match or certificate raises
    :class:`BisectionError`."""
    if _flip_poles(lo, hi) is None:
        raise BisectionError(f"bracket endpoints {(lo.x, hi.x)} have the classes {lo.key!r} and {hi.key!r}, "
                             "not one flip apart")
    fine_rel_tol = _fine_rel_tol(eq, rel_tol, tol)
    w = hi.x - lo.x
    while w > tol:
        w *= 0.5
    ends = [lo.traj, hi.traj]
    for i, (end, other) in enumerate([(lo, hi), (hi, lo)]):
        if end.key == "stable" and (unshared := other.traj.poles[end.poles:]):
            ends[i] = _run(eq, mode, end.x, end.traj.config.rel_tol, unshared[0].location - 1.0)
    value = float(_matched_root(eq, mode, rel_tol, fine_rel_tol, (lo.x, hi.x), ends, tol))
    pole_count = _flip_poles(_record(eq, mode, value - 0.5 * w, fine_rel_tol),
                             _record(eq, mode, value + 0.5 * w, fine_rel_tol))
    if pole_count is None:
        raise BisectionError(f"matched root {value!r} failed its certificate: fine probes {w:.3g} "
                             "apart are not one flip apart", probe=value)
    return EigenvalueRecord(index, value, w, pole_count, mode)


SEPARATRIX_BAND = 1e-3     # relative band around a branch curve, for separatrix_check
DECAY_DIP = 2.5e-4         # |y| depth certifying the decaying separatrix
DECAY_NEIGHBORHOOD = 1e-2  # |y| stays below this over the certified run
DECAY_SPAN = 0.5           # the certified run's least time span


def _runs(mask):
    """Index pairs (i, j), both inclusive, of the runs of True in ``mask``."""
    return np.flatnonzero(np.diff(mask, prepend=False, append=False)).reshape(-1, 2) - (0, 1)


def separatrix_check(eq: Equation, mode: SearchMode | ModeKind | str, value: float) -> SolutionClass:
    """Classify the trajectory at a converged critical value.

    The run is the search's own certificate probe of ``value`` (see
    :func:`_run`) at rel_tol 1e-11, sized from ``value`` by the pole-count
    law and ended by its class rule. A double-precision trajectory shadows
    the separatrix only over a finite stretch (deviations grow like
    exp((2/3) t^(3/2)) in the positive direction), so the check reads a
    window of the run, not its tail. Its samples are the step controller's
    own, so the window's ends follow the stepper's step sizes.

    Negative direction: the window is the longest stretch on which the run
    stays within ``SEPARATRIX_BAND`` of a branch curve, trimmed by 5 % at
    each end. The tag is the branch the run hugs there (the sign of y).
    Positive direction: the window is the first stretch on which |y| stays
    within ``DECAY_NEIGHBORHOOD`` for at least ``DECAY_SPAN`` and dips to
    ``DECAY_DIP``, and the tag is DecayToZero. Either way the pole count is
    that of the poles the run crossed before the window.
    Returns the :class:`SolutionClass`. A run that never hugs a branch or
    never decays raises ClassificationError, a run stopped by step
    underflow or one that reaches its horizon IntegrationError, bad
    arguments and the toy model ValueError.
    """
    mode = SearchMode.coerce(mode)
    if not math.isfinite(value):
        raise ValueError(f"value = {value} must be finite")
    if eq.first_order:
        raise ValueError("toy-model critical values are characterized by count_toy_maxima")
    traj = _run(eq, mode, value, 1e-11)
    if traj.direction is Direction.POSITIVE_T:
        rt, ay = traj.t, np.abs(traj.y)
        for i, j in _runs(ay <= DECAY_NEIGHBORHOOD):
            if rt[j] - rt[i] >= DECAY_SPAN and ay[i:j + 1].min() <= DECAY_DIP:
                poles = sum(1 for p in traj.poles if p.location < rt[i])
                return SolutionClass(ClassTag.DECAY_TO_ZERO, poles, (rt[i], rt[j]))
        raise ClassificationError(f"trajectory at {value!r} never decays to zero")
    m = traj.t < -0.5
    rt, ry = traj.t[m], traj.y[m]
    bw = branch_curve(eq, rt)
    # the first run of in-band samples with the longest time span wins
    runs = _runs(np.abs(np.abs(ry) - bw) <= SEPARATRIX_BAND * bw)
    i, j = runs[np.argmax(rt[runs[:, 0]] - rt[runs[:, 1]])] if len(runs) else (0, 0)
    if j - i < 3:
        raise ClassificationError(f"trajectory at {value!r} never tracks a branch curve within the band")
    span = rt[i] - rt[j]
    lo, hi = rt[j] + 0.05 * span, rt[i] - 0.05 * span
    tag = ClassTag.SEPARATRIX_PLUS if ry[i] > 0.0 else ClassTag.SEPARATRIX_MINUS
    return SolutionClass(tag, sum(1 for p in traj.poles if p.location > hi), (lo, hi))


def eigen_table(
    eq: Equation,
    mode: SearchMode | ModeKind | str,
    n_max: int,
    tol: float = 1e-9,
    rel_tol: float = 1e-10,
) -> list[EigenvalueRecord]:
    """First ``n_max`` critical initial conditions of a search mode.

    Scans outward from the mode's scan origin with a step that adapts to
    the predicted eigenvalue spacing (which shrinks like n^(p-1)), and hands
    the records of every class flip's two scan probes to :func:`_end_game`.
    Indices are ordinal in the scanned variable. On a mid-table failure a
    :class:`PartialTableError` carrying the finished records is raised.
    """
    mode = SearchMode.coerce(mode)
    spec = _spec(eq, mode)
    if not isinstance(n_max, int) or isinstance(n_max, bool) or not 1 <= n_max <= spec.max_index:
        raise ValueError(f"n_max = {n_max!r} must be an int between 1 and {spec.max_index}")
    _check_tol(tol, rel_tol)
    p = spec.exponent
    sign = -1.0 if spec.origin < 0 else 1.0
    limit = 1.7 * spec.coeff * (n_max + 1) ** p + 3.0

    records: list[EigenvalueRecord] = []
    step = spec.step
    try:
        for lo, hi in _walk(eq, mode, spec.origin, sign * limit, lambda: sign * step):
            records.append(_end_game(eq, mode, lo, hi, tol, rel_tol, len(records) + 1))
            n = len(records)
            if n == n_max:
                return records
            if n >= 2:
                gap = abs(records[-1].value - records[-2].value)
                ratio = ((n + 1) ** p - n ** p) / (n ** p - (n - 1) ** p)
                step = max(gap * ratio * 0.25, tol * 10)
        raise BisectionError(
            f"scan passed |x| = {limit:.3g} with only {len(records)} of "
            f"{n_max} eigenvalues found"
        )
    except (BisectionError, ClassificationError, IntegrationError) as exc:
        raise PartialTableError(str(exc), records, failed_index=len(records) + 1) from exc


def toy_eigen_table(n_max: int, tol: float = 1e-6) -> list[EigenvalueRecord]:
    """Critical initial values a_n of the toy model: :func:`eigen_table` on
    its one search mode, at ``rel_tol`` 1e-9. The maxima count of
    y' = cos(pi t y) rises by one across each a_n."""
    return eigen_table(TOY_MODEL, ModeKind.TOY, n_max, tol, rel_tol=1e-9)
