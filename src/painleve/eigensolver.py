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
separatrix at a matching time T, projected onto the growing mode. The two
bracket ends pick the first T, and a bracketing Illinois search finds its
root in passes at later and later T, with probes that stop at T instead of
running through the whole pole cascade or out to the toy model's horizon.
The binary discriminant stays the ground truth: two full-horizon probes a
bracket width apart must still classify differently around the root (the
certificate), and if they do not, the end game falls back to bisecting the
scan bracket at the fine tolerance.

The direction, scan seed and growth law of each search mode, and the
turning point, instability rate and separatrix asymptotics of each
equation, come from the equation's spec.

The search never asks the classifier to *detect* a separatrix (a
measure-zero event); separatrix tags are used only to validate converged
records.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .classify import (SEPARATRIX_BAND, ClassificationError, ClassTag, classify,
                       count_toy_maxima, toy_maxima)
from .equations import (TOY_MODEL, Direction, Equation, InitialData, ModeKind, ModeSpec, branch_curve,
                        energy)
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
    """A probe produced a class that matches neither bracket endpoint."""

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
        if isinstance(mode, SearchMode):
            return mode
        if isinstance(mode, str):
            mode = ModeKind(mode)
        return cls(mode)


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


def _positive(eq: Equation, mode: SearchMode) -> bool:
    return _spec(eq, mode).direction is Direction.POSITIVE_T


def _initial_data(mode: SearchMode, x: float) -> InitialData:
    if mode.kind is ModeKind.SLOPE:
        return InitialData(mode.fixed_value, x)
    if mode.kind is ModeKind.VALUE:
        return InitialData(x, mode.fixed_value)
    return InitialData(x)


def _trial_energy(eq: Equation, mode: SearchMode, x: float) -> float:
    init = _initial_data(mode, x)
    return max(abs(energy(eq, init.y0, init.slope0)), 0.75)


def _negative_horizon(eq: Equation, mode: SearchMode, x: float) -> float:
    turn = eq.turning_point(_trial_energy(eq, mode, x))
    return -max(28.0, 1.35 * turn + 16.0)

# Tolerance of the scan and bisect's two end probes; perfbench/workloads.py
# keeps a copy of its rel_tol.
_COARSE = {"rel_tol": 1e-8, "abs_tol": 1e-10}


def _fine_cfg(eq: Equation, cfg: IntegrationConfig, tol: float) -> IntegrationConfig:
    # Flip points move by ~3e3 * rel_tol for the second equation and ~1e2 *
    # rel_tol for the first, so the end game runs tight enough for tol to
    # be meaningful.
    fine_rel = min(1e-10, tol / eq.fine_tol_divisor)
    return replace(cfg, rel_tol=max(fine_rel, 1e-13), abs_tol=max(fine_rel * 1e-2, 1e-15))


def _probe(eq, mode, x, cfg: IntegrationConfig, max_poles=None):
    """Full-horizon trajectory of the trial datum x at the tolerance of cfg."""
    negative = cfg.t_horizon is None and not _positive(eq, mode)
    pc = replace(cfg, t_horizon=_negative_horizon(eq, mode, x) if negative else cfg.t_horizon,
                 max_poles=cfg.max_poles if max_poles is None else max_poles)
    return integrate(eq, _initial_data(mode, x), _spec(eq, mode).direction, pc)


_NEGATIVE_KEYS = {ClassTag.POLE_CASCADE: "cascade", ClassTag.STABLE_OSCILLATION: "stable"}


def _class_key(eq, x, traj):
    """Class key of a probe and its pole count: the toy model's maxima count
    (no poles), the blow-up signature in the positive direction (its pole
    count follows from the other bracket end), or cascade / stable."""
    if eq.first_order:
        return count_toy_maxima(traj), 0
    if traj.direction is Direction.POSITIVE_T:
        return _events(traj)[1], None
    cls = classify(eq, traj)
    if cls.tag not in _NEGATIVE_KEYS:
        raise BisectionError(f"probe x = {x!r} classified as {cls.tag.value}", probe=x)
    return _NEGATIVE_KEYS[cls.tag], cls.pole_count


def _discriminant(eq, mode, cfg, n_poles=None):
    """Class key of a trial initial datum x, probed at the tolerance of cfg."""
    return lambda x: _class_key(eq, x, _probe(eq, mode, x, cfg, n_poles))[0]


def _keys_differ(a, b) -> bool:
    if isinstance(a, tuple):
        n = min(len(a), len(b))
        return a[:n] != b[:n]
    return a != b


def _one_flip(k_lo, k_hi) -> bool:
    """Keys at the ends of a bracket around one critical value: a maxima
    count rises by exactly 1, other keys differ."""
    return k_hi - k_lo == 1 if isinstance(k_lo, int) else _keys_differ(k_lo, k_hi)


def _walk(disc, x, end, step):
    """Probe the class key at x, x + step(), ... up to ``end`` (either side
    of x) and yield each pair of neighbouring probes whose keys differ.

    ``step`` is called before every step, so the consumer can change it
    between flips.
    """
    prev = disc(x)
    while (end - x) * (h := step()) > 0.0:
        nxt = x + h
        if (nxt - end) * h > 0.0:
            nxt = end
        if nxt == x:
            break
        cur = disc(nxt)
        if _keys_differ(prev, cur):
            yield x, nxt
        x, prev = nxt, cur


@contextlib.contextmanager
def _partial_table(records: list[EigenvalueRecord]):
    """Turn a failed probe into a :class:`PartialTableError` that carries the
    finished records."""
    try:
        yield
    except (BisectionError, ClassificationError, IntegrationError) as exc:
        raise PartialTableError(str(exc), records, failed_index=len(records) + 1) from exc


def scan_brackets(
    eq: Equation,
    mode: SearchMode | ModeKind | str,
    search_range: tuple[float, float],
    step: float,
    cfg: IntegrationConfig | None = None,
) -> list[tuple[float, float]]:
    """Brackets [x, x+step] on which the discriminant class flips.

    The k-th returned bracket contains the k-th eigenvalue inside the range.
    Two eigenvalues closer than the step cannot be separated (the class
    returns to itself); a warning is emitted when detected brackets crowd
    within two steps of each other, which signals that risk.
    """
    mode = SearchMode.coerce(mode)
    if step <= 0.0:
        raise ValueError("step must be positive")
    lo, hi = search_range
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError("search range must be a finite nonempty interval")
    if cfg is None:
        cfg = IntegrationConfig()
    n_poles = None
    if _positive(eq, mode):
        # pole cap a little above the index of a critical value at the range's
        # far end; 1.2 undershoots the growth coefficient
        index_exponent = 1.0 / _spec(eq, mode).exponent
        n_poles = int((max(abs(lo), abs(hi)) / 1.2) ** index_exponent) + 8
    disc = _discriminant(eq, mode, replace(cfg, **_COARSE), n_poles)

    brackets = list(_walk(disc, lo, hi, lambda: step))
    for (a0, _), (b0, _) in zip(brackets, brackets[1:]):
        if b0 - a0 < 2.0 * step:
            warnings.warn(
                f"brackets at {a0:.6g} and {b0:.6g} are within two scan steps; "
                "eigenvalue pairs inside one step would go undetected - shrink the step",
                stacklevel=2,
            )
            break
    return brackets


def _fine_bisection(disc, lo, hi, tol):
    """Fallback end game: halve the scan bracket at the fine tolerance."""
    k_lo, k_hi = disc(lo), disc(hi)
    if not _keys_differ(k_lo, k_hi):
        raise BisectionError(f"fine probes at both ends of ({lo!r}, {hi!r}) share the class {k_lo!r}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        k_mid = disc(mid)
        if not _keys_differ(k_mid, k_lo):
            lo = mid
        elif not _keys_differ(k_mid, k_hi):
            hi = mid
        else:
            raise BisectionError(
                f"probe {mid!r} produced class {k_mid!r}, matching neither "
                f"{k_lo!r} nor {k_hi!r}", probe=mid,
            )
    return lo, hi


class _Unmatched(Exception):
    """A short probe ended early, off the axis or behind other poles or maxima."""


def _illinois(g, a, ga, b, gb, stop):
    """Root of g between a and b (ga = g(a), gb = g(b) of opposite signs) by Illinois
    regula falsi, once a step or the bracket is below ``stop``; None after 40 steps."""
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
    return None


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
        raise _Unmatched
    if yp is None:
        return y - y_sep, v
    return (yp - yp_sep) + (direction.sign * math.sqrt(v) + v_t / (4.0 * v)) * (y - y_sep), math.sqrt(v)


def _axis_states(traj, u, times, n_behind):
    """y, y' (None for a first-order equation) at the times sigma * u,
    interpolated between neighbouring real samples; NaN off the axis or where
    other than n_behind of the event ``times`` lie behind."""
    idx, sigma = traj.real_indices(), traj.direction.sign
    s = sigma * traj.t[idx].real
    i = np.clip(np.searchsorted(s, u, side="right") - 1, 0, len(s) - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (u - s[i]) / (s[i + 1] - s[i])
    behind = np.searchsorted(sigma * times, u)
    f[(idx[i + 1] != idx[i] + 1) | (f < 0.0) | (f > 1.0) | (behind != n_behind)] = np.nan
    lerp = lambda v: v[i] + f * (v[i + 1] - v[i])  # noqa: E731
    return lerp(traj.y[idx].real), None if traj.yp is None else lerp(traj.yp[idx].real)


def _matching_start(eq, ends):
    """((T, y), events behind, g at each end) at the last T at which both
    bracket ends sit on the real axis behind the events they share, with
    opposite signs of g on the separatrix nearest (T, y), y their mean.
    Raises _Unmatched if there is none."""
    direction = ends[0].direction
    events = [_events(tr) for tr in ends]
    shared = _shared_events(*(sig for _, sig in events))
    u = np.sort(direction.sign * np.concatenate([tr.real_t() for tr in ends]))[::-1]
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
            return (t, float(y_mid[k])), shared, float(g_a), float(g_b)
    raise _Unmatched


_SHRINK = 1e4  # each later matched bracket is this much narrower than the last
_MARGIN = 3.0  # its ends deviate this much less than the last bracket's nearer end did
_WIDEN = 3  # times it widens by 4 while its ends share a sign
_STOP = 0.1  # the first pass stops below this share of the next bracket


def _matched_root(eq, mode, cfg, cfg_fine, bracket, ends, tol, n_poles):
    """Separatrix datum in the scan bracket by root-finding on g
    (:func:`_projection`) at a matching time T, with probes that stop at T;
    None where that cannot be trusted (the caller then bisects). The first
    pass only places the next bracket, so it runs at the caller's tolerance.
    Each later pass centres a narrower bracket on the last root, matches at
    a later T and runs at the fine tolerance down to tol / 20. The matching
    error shrinks at least as fast as deviations grow, so the passes end
    once the root moves by less than that growth times tol / 4.
    """
    direction, sigma = ends[0].direction, ends[0].direction.sign

    def g(t, pc):
        """g at T = t of a trial datum, probed with the tolerance of pc. The
        separatrix is evaluated once per T: the toy model's is a backward run."""
        at = eq.separatrix[direction](t, *point)

        def g_t(x):
            traj = integrate(eq, _initial_data(mode, x), direction,
                             replace(pc, t_horizon=t, max_poles=n_poles or pc.max_poles))
            if (traj.stopped_by != "horizon" or traj.terminal_t != t
                    or traj.t[-1].imag != 0.0 or len(_events(traj)[1]) != n_before):
                raise _Unmatched
            yp = None if traj.yp is None else traj.yp[-1].real
            return _projection(at, direction, traj.y[-1].real, yp)[0]
        return g_t

    yp0 = None if eq.first_order else 0.0
    rate = lambda t: _projection(eq.separatrix[direction](t, *point), direction, 0.0, yp0)[1]  # noqa: E731
    lo, hi = bracket
    width = (hi - lo) / _SHRINK
    try:
        point, n_before, g_lo, g_hi = _matching_start(eq, ends)
        t_match = point[0]
        root = _illinois(g(t_match, cfg), lo, g_lo, hi, g_hi, _STOP * width)
        while root is not None:
            near, t_last = min(root - lo, hi - root), t_match
            for _ in range(_WIDEN):
                step = math.log(max(2.0 * near / (_MARGIN * width), 1.0))
                # sqrt(V) rises along the run: step with its value at the far end
                t_match = t_last + sigma * step / rate(t_last + sigma * step / rate(t_last))
                lo, hi = root - 0.5 * width, root + 0.5 * width
                g_t = g(t_match, cfg_fine)
                g_lo, g_hi = g_t(lo), g_t(hi)
                if g_lo * g_hi < 0.0:
                    break
                width *= 4.0
            else:
                return None
            last = root
            root = _illinois(g_t, lo, g_lo, hi, g_hi, tol / 20.0)
            if root is None or abs(root - last) <= math.exp(step) * tol / 4.0:
                return root
            width /= _SHRINK
        return None
    except _Unmatched:
        return None


def bisect(
    eq: Equation,
    mode: SearchMode | ModeKind | str,
    bracket: tuple[float, float],
    tol: float = 1e-9,
    cfg: IntegrationConfig | None = None,
    index: int = 1,
) -> EigenvalueRecord:
    """Locate the critical value inside one bracket to the requested width.

    The endpoints, probed at the scan tolerance, must classify differently,
    and the toy model's maxima count must rise by exactly 1 between them;
    their trajectories start the matched end game (:func:`_matched_root`).
    The class stays the ground truth: fine-tolerance probes at value -+ w/2,
    with w the bracket width halved until it is at most ``tol``, must still
    classify so (the certificate). If not, or if matching fails, the bracket
    is bisected at the fine tolerance instead.
    """
    mode = SearchMode.coerce(mode)
    if cfg is None:
        cfg = IntegrationConfig()
    if tol < 10.0 * cfg.rel_tol:
        raise ValueError(f"tol = {tol} is below 10 * rel_tol = {10 * cfg.rel_tol}")
    positive = _positive(eq, mode)
    cfg_fine = _fine_cfg(eq, cfg, tol)

    lo, hi = bracket
    ends = [_probe(eq, mode, x, replace(cfg, **_COARSE), index + 6 if positive else None) for x in bracket]
    (k_lo, n_lo), (k_hi, _) = (_class_key(eq, x, traj) for x, traj in zip(bracket, ends))
    if not _one_flip(k_lo, k_hi):
        raise BisectionError(f"bracket endpoints {bracket} have the classes {k_lo!r} and {k_hi!r}, "
                             "not one flip apart")
    # a blow-up signature traverses m poles before the decaying stretch
    m = _shared_events(k_lo, k_hi) if n_lo is None else None
    n_poles = None if m is None else m + 2
    w = hi - lo
    while w > tol:
        w *= 0.5

    def certified_poles(value):
        (k_lo, n_lo), (k_hi, n_hi) = (_class_key(eq, x, _probe(eq, mode, x, cfg_fine, n_poles))
                                      for x in (value - 0.5 * w, value + 0.5 * w))
        if not _one_flip(k_lo, k_hi):
            return None
        return m if m is not None else n_lo if k_lo == "stable" else n_hi

    value = _matched_root(eq, mode, cfg, cfg_fine, bracket, ends, tol, n_poles)
    pole_count = None if value is None else certified_poles(value)
    if pole_count is None:
        lo, hi = _fine_bisection(_discriminant(eq, mode, cfg_fine, n_poles), lo, hi, tol)
        value = 0.5 * (lo + hi)
        pole_count = certified_poles(value)
        if pole_count is None:
            raise BisectionError(f"fine bisection around {value!r} failed its certificate")
    return EigenvalueRecord(index, float(value), w, pole_count, mode)


def separatrix_check(
    eq: Equation,
    mode: SearchMode | ModeKind | str,
    value: float,
    uncertainty: float = 1e-9,
    cfg: IntegrationConfig | None = None,
):
    """Classify the trajectory at a converged critical value.

    A double-precision trajectory shadows the separatrix only over a finite
    stretch past the turning point (log(band/uncertainty) e-foldings of the
    local instability rate), so the run stops inside that stretch and the
    classification window is the longest branch-tracking run found there.
    Returns the :class:`SolutionClass`, which callers assert to be a
    separatrix (negative direction) or decay (positive direction).
    """
    mode = SearchMode.coerce(mode)
    if cfg is None:
        cfg = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13)
    direction = _spec(eq, mode).direction
    init = _initial_data(mode, value)
    if direction is Direction.POSITIVE_T:
        pc = replace(cfg, t_horizon=25.0, max_step=min(cfg.max_step, 0.05))
        traj = integrate(eq, init, direction, pc)
        return classify(eq, traj)

    turn = eq.turning_point(_trial_energy(eq, mode, value))
    rate = eq.instability_rate(turn)
    split = math.log(SEPARATRIX_BAND / max(uncertainty, 1e-13)) / rate
    horizon = -(turn + max(2.0, 0.8 * split) + 2.0)
    pc = replace(cfg, t_horizon=horizon, max_step=min(cfg.max_step, 0.1))
    traj = integrate(eq, init, direction, pc)
    win = _branch_window(eq, traj)
    if win is None:
        raise ClassificationError(
            f"trajectory at {value!r} never tracks a branch curve within the band"
        )
    return classify(eq, traj, window=win)


def _branch_window(eq, traj):
    """Longest contiguous stretch where the trajectory hugs a branch curve."""
    rt, ry = traj.real_t(), traj.real_y()
    m = rt < -0.5
    rt, ry = rt[m], ry[m]
    if len(rt) < 4:
        return None
    bw = branch_curve(eq, rt)
    ok = (np.abs(ry - bw) <= SEPARATRIX_BAND * bw) | (np.abs(ry + bw) <= SEPARATRIX_BAND * bw)
    best = None
    i = 0
    n = len(ok)
    while i < n:
        if ok[i]:
            j = i
            while j + 1 < n and ok[j + 1]:
                j += 1
            if best is None or abs(rt[j] - rt[i]) > abs(rt[best[1]] - rt[best[0]]):
                best = (i, j)
            i = j + 1
        else:
            i += 1
    if best is None:
        return None
    i, j = best
    if j - i < 3:
        return None
    span = rt[j] - rt[i]
    return (rt[j] - 0.05 * span, rt[i] + 0.05 * span)


def eigen_table(
    eq: Equation,
    mode: SearchMode | ModeKind | str,
    n_max: int,
    tol: float = 1e-9,
    cfg: IntegrationConfig | None = None,
) -> list[EigenvalueRecord]:
    """First ``n_max`` critical initial conditions of a search mode.

    Scans outward from the mode's scan origin with a step that adapts to
    the predicted eigenvalue spacing (which shrinks like n^(p-1)), and hands
    every class flip to :func:`bisect`. Indices are ordinal in the scanned
    variable. On a mid-table failure a :class:`PartialTableError` carrying
    the finished records is raised.
    """
    mode = SearchMode.coerce(mode)
    spec = _spec(eq, mode)
    if n_max < 1 or n_max > spec.max_index:
        raise ValueError(f"n_max must be between 1 and {spec.max_index}")
    if cfg is None:
        cfg = IntegrationConfig()
    p = spec.exponent
    sign = -1.0 if spec.origin < 0 else 1.0
    limit = 1.7 * spec.coeff * (n_max + 1) ** p + 3.0

    disc = _discriminant(eq, mode, replace(cfg, **_COARSE), (n_max + 3) if _positive(eq, mode) else None)
    records: list[EigenvalueRecord] = []
    step = spec.step
    with _partial_table(records):
        for a, b in _walk(disc, spec.origin, sign * limit, lambda: sign * step):
            records.append(bisect(eq, mode, (min(a, b), max(a, b)), tol=tol, cfg=cfg,
                                  index=len(records) + 1))
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


def toy_eigen_table(
    n_max: int,
    tol: float = 1e-6,
    cfg: IntegrationConfig | None = None,
) -> list[EigenvalueRecord]:
    """Critical initial values a_n of the toy model: :func:`eigen_table` on
    its one search mode, at ``rel_tol`` 1e-9 unless ``cfg`` is given. The
    maxima count of y' = cos(pi t y) rises by one across each a_n."""
    if cfg is None:
        cfg = IntegrationConfig(rel_tol=1e-9, abs_tol=1e-11)
    if tol < 10.0 * cfg.rel_tol:
        raise ValueError(f"tol = {tol} is below 10 * rel_tol = {10 * cfg.rel_tol}")
    return eigen_table(TOY_MODEL, ModeKind.TOY, n_max, tol, cfg)
