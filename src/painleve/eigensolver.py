"""Location of the critical initial conditions by grid scan and asymptotic
matching.

A separatrix initial condition is a boundary between two open families of
generic behaviors, so it is bracketed by a binary discriminant:

* negative direction (Painleve I both modes, Painleve II slope mode):
  {pole cascade} vs {stable oscillation};
* positive direction (Painleve II value mode): the sign of the (n+1)-th
  blow-up, read off the recorded pole approach signs;
* toy model: the number of maxima of the solution.

A scan at a coarse integration tolerance finds the brackets. The end game
then switches to a continuous discriminant: the deviation from the
separatrix's asymptotic series at a matching time T, projected onto the
growing WKB mode. The two bracket ends pick the first T, and a bracketing
Illinois search finds its root in passes at later and later T, with probes
that stop at T instead of running through the whole pole cascade. The
binary discriminant stays the ground truth: two full-horizon probes a
bracket width apart must still classify differently around the root (the
certificate), and if they do not, the end game falls back to bisecting the
scan bracket at the fine tolerance. The toy model is bisected on its maxima
count throughout.

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
                       count_toy_maxima)
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

# Tolerance of the scan, the toy's coarse bisection and bisect's two end
# probes; perfbench/workloads.py keeps a copy of its rel_tol.
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


def _signature(traj) -> tuple[int, ...]:
    return tuple(p.approach_sign for p in traj.poles)


def _class_key(eq, x, traj):
    """Blow-up signature, or cascade / stable and the pole count, of a probe."""
    if traj.direction is Direction.POSITIVE_T:
        return _signature(traj), None
    cls = classify(eq, traj)
    if cls.tag not in _NEGATIVE_KEYS:
        raise BisectionError(f"probe x = {x!r} classified as {cls.tag.value}", probe=x)
    return _NEGATIVE_KEYS[cls.tag], cls.pole_count


def _toy_count(a: float, cfg: IntegrationConfig) -> int:
    traj = integrate(TOY_MODEL, InitialData(a), Direction.POSITIVE_T, cfg)
    return count_toy_maxima(traj)


def _discriminant(eq, mode, cfg, n_poles=None):
    """Class key of a trial initial datum x, probed at the tolerance of cfg."""
    if eq.first_order:
        return lambda x: _toy_count(x, cfg)
    return lambda x: _class_key(eq, x, _probe(eq, mode, x, cfg, n_poles))[0]


def _keys_differ(a, b) -> bool:
    if isinstance(a, tuple):
        n = min(len(a), len(b))
        return a[:n] != b[:n]
    return a != b


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
    if not eq.first_order and _positive(eq, mode):
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


def _half_steps(disc, lo, hi, k_lo, k_hi, stop):
    while hi - lo > stop:
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


def _fine_bisection(disc, lo, hi, tol):
    """Fallback end game: halve the scan bracket at the fine tolerance."""
    k_lo, k_hi = disc(lo), disc(hi)
    if not _keys_differ(k_lo, k_hi):
        raise BisectionError(f"fine probes at both ends of ({lo!r}, {hi!r}) share the class {k_lo!r}")
    return _half_steps(disc, lo, hi, k_lo, k_hi, tol)


class _Unmatched(Exception):
    """A short probe ended early, off the axis or behind other poles."""


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


def _shared_poles(sig_a, sig_b) -> int:
    """Number of leading poles two blow-up signatures share."""
    return next((i for i, (p, q) in enumerate(zip(sig_a, sig_b)) if p != q), min(len(sig_a), len(sig_b)))


def _projection(eq, direction, t, branch, y, yp):
    """Share g = d' + (sigma sqrt(V) + V_t / (4 V)) d of the growing WKB mode
    of d'' = V d in the deviation d = y - y_sep from the separatrix series at
    t, and the growth rate sqrt(V). Raises _Unmatched where V <= 0."""
    y_sep, yp_sep, v, v_t = eq.separatrix[direction](t, branch)
    if v <= 0.0:
        raise _Unmatched
    return (yp - yp_sep) + (direction.sign * math.sqrt(v) + v_t / (4.0 * v)) * (y - y_sep), math.sqrt(v)


def _axis_states(traj, u, n_behind):
    """y, y' at the times sigma * u, interpolated between neighbouring real
    samples; NaN off the axis or where other than n_behind poles lie behind."""
    idx, sigma = traj.real_indices(), traj.direction.sign
    s, y, yp = sigma * traj.t[idx].real, traj.y[idx].real, traj.yp[idx].real
    i = np.clip(np.searchsorted(s, u, side="right") - 1, 0, len(s) - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (u - s[i]) / (s[i + 1] - s[i])
    behind = np.searchsorted(sigma * np.array([p.location for p in traj.poles]), u)
    f[(idx[i + 1] != idx[i] + 1) | (f < 0.0) | (f > 1.0) | (behind != n_behind)] = np.nan
    return y[i] + f * (y[i + 1] - y[i]), yp[i] + f * (yp[i + 1] - yp[i])


def _matching_start(eq, ends):
    """(T, branch sign, poles behind, g at each end) at the last T at which
    both bracket ends sit on the real axis behind the poles they share, with
    opposite signs of g. Raises _Unmatched if there is none."""
    direction = ends[0].direction
    shared = _shared_poles(*map(_signature, ends))
    u = np.sort(direction.sign * np.concatenate([tr.real_t() for tr in ends]))[::-1]
    states = [_axis_states(tr, u, shared) for tr in ends]
    y_sum = states[0][0] + states[1][0]
    for k in np.nonzero((u > 0.0) & np.isfinite(y_sum))[0]:
        t, branch = direction.sign * float(u[k]), 1.0 if y_sum[k] >= 0.0 else -1.0
        try:
            g_a, g_b = (_projection(eq, direction, t, branch, y[k], yp[k])[0] for y, yp in states)
        except _Unmatched:
            continue
        if g_a * g_b < 0.0:
            return t, branch, shared, float(g_a), float(g_b)
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

    def g(x, t, pc):
        traj = integrate(eq, _initial_data(mode, x), direction,
                         replace(pc, t_horizon=t, max_poles=n_poles or pc.max_poles))
        if (traj.stopped_by != "horizon" or traj.terminal_t != t
                or traj.t[-1].imag != 0.0 or len(traj.poles) != n_before):
            raise _Unmatched
        return _projection(eq, direction, t, branch, traj.y[-1].real, traj.yp[-1].real)[0]

    rate = lambda t: _projection(eq, direction, t, branch, 0.0, 0.0)[1]  # noqa: E731
    lo, hi = bracket
    width = (hi - lo) / _SHRINK
    try:
        t_match, branch, n_before, g_lo, g_hi = _matching_start(eq, ends)
        root = _illinois(lambda x: g(x, t_match, cfg), lo, g_lo, hi, g_hi, _STOP * width)
        while root is not None:
            near, t_last = min(root - lo, hi - root), t_match
            for _ in range(_WIDEN):
                step = math.log(max(2.0 * near / (_MARGIN * width), 1.0))
                # sqrt(V) rises along the run: step with its value at the far end
                t_match = t_last + sigma * step / rate(t_last + sigma * step / rate(t_last))
                lo, hi = root - 0.5 * width, root + 0.5 * width
                g_lo, g_hi = g(lo, t_match, cfg_fine), g(hi, t_match, cfg_fine)
                if g_lo * g_hi < 0.0:
                    break
                width *= 4.0
            else:
                return None
            last = root
            root = _illinois(lambda x: g(x, t_match, cfg_fine), lo, g_lo, hi, g_hi, tol / 20.0)
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

    The endpoints, probed at the scan tolerance, must classify differently;
    their trajectories start the matched end game (:func:`_matched_root`).
    The class stays the ground truth: fine-tolerance probes at value -+ w/2,
    with w the bracket width halved until it is at most ``tol``, must still
    classify differently (the certificate). If not, or if matching fails,
    the bracket is bisected at the fine tolerance instead.
    """
    mode = SearchMode.coerce(mode)
    if cfg is None:
        cfg = IntegrationConfig()
    if tol < 10.0 * cfg.rel_tol:
        raise ValueError(f"tol = {tol} is below 10 * rel_tol = {10 * cfg.rel_tol}")
    if eq.first_order:
        raise ValueError("use toy_eigen_table for the toy model")
    positive = _positive(eq, mode)
    cfg_fine = _fine_cfg(eq, cfg, tol)

    lo, hi = bracket
    ends = [_probe(eq, mode, x, replace(cfg, **_COARSE), index + 6 if positive else None) for x in bracket]
    keys = [_class_key(eq, x, traj)[0] for x, traj in zip(bracket, ends)]
    if not _keys_differ(*keys):
        raise BisectionError(f"bracket endpoints {bracket} share the class {keys[0]!r}")
    # in the positive direction m poles are traversed before the decaying stretch
    m = _shared_poles(*keys) if positive else None
    n_poles = m + 2 if positive else None
    w = hi - lo
    while w > tol:
        w *= 0.5

    def certified_poles(value):
        (k_lo, n_lo), (k_hi, n_hi) = (_class_key(eq, x, _probe(eq, mode, x, cfg_fine, n_poles))
                                      for x in (value - 0.5 * w, value + 0.5 * w))
        if not _keys_differ(k_lo, k_hi):
            return None
        return m if positive else n_lo if k_lo == "stable" else n_hi

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
    the predicted eigenvalue spacing (which shrinks like n^(p-1)), bisecting
    every class flip. Indices are ordinal in the scanned variable. On a
    mid-table failure a :class:`PartialTableError` carrying the finished
    records is raised. The toy model ignores ``mode`` and is handed to
    :func:`toy_eigen_table`.
    """
    if eq.first_order:
        return toy_eigen_table(n_max, tol=max(tol, 1e-8), cfg=cfg)
    mode = SearchMode.coerce(mode)
    if n_max < 1 or n_max > 30:
        raise ValueError("n_max must be between 1 and 30")
    if cfg is None:
        cfg = IntegrationConfig()
    spec = _spec(eq, mode)
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
    """Critical initial values of the toy model, by bisection on the
    maxima count. The n-th record is where the count first reaches
    (count at the scan origin) + n."""
    if n_max < 1 or n_max > 60:
        raise ValueError("n_max must be between 1 and 60")
    if cfg is None:
        cfg = IntegrationConfig(rel_tol=1e-9, abs_tol=1e-11)
    if tol < 10.0 * cfg.rel_tol:
        raise ValueError(f"tol = {tol} is below 10 * rel_tol = {10 * cfg.rel_tol}")
    spec = TOY_MODEL.modes[ModeKind.TOY]
    mode = SearchMode(ModeKind.TOY)
    records: list[EigenvalueRecord] = []
    a = spec.origin
    step = spec.step
    limit = spec.coeff * (n_max + 2) ** spec.exponent + 3.0
    coarse = replace(cfg, **_COARSE)
    with _partial_table(records):
        base = _toy_count(a, coarse)
        while len(records) < n_max:
            if a > limit:
                raise BisectionError(f"toy scan ran past a = {a:.3g}")
            nxt = a + step
            have = base + len(records)
            if _toy_count(nxt, coarse) <= have:
                a = nxt
                continue
            # bisect to the first jump inside (a, nxt) on the key
            # count > have; a multi-jump interval is handled one jump at a time
            lo, hi = _half_steps(lambda x: _toy_count(x, coarse) > have, a, nxt, False, True,
                                 max(tol, 1e-4))
            lo, hi = _half_steps(lambda x: _toy_count(x, cfg) > have, lo, hi, False, True, tol)
            value = 0.5 * (lo + hi)
            records.append(EigenvalueRecord(len(records) + 1, value, hi - lo, 0, mode))
            a = value + tol
            if len(records) >= 2:
                gap = records[-1].value - records[-2].value
                step = max(0.25 * gap, 100 * tol)
    return records
