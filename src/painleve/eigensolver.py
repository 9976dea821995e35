"""Location of the critical initial conditions by grid scan, bisection and
asymptotic matching.

A separatrix initial condition is a boundary between two open families of
generic behaviors, so it is bracketed by a binary discriminant:

* negative direction (Painleve I both modes, Painleve II slope mode):
  {pole cascade} vs {stable oscillation};
* positive direction (Painleve II value mode): the sign of the (n+1)-th
  blow-up, read off the recorded pole approach signs;
* toy model: the number of maxima of the solution.

A scan finds the brackets, and bisection at a coarse integration tolerance
narrows each to about 1e-5. The end game then switches to a continuous
discriminant: the deviation from the separatrix's asymptotic series at a
matching time T, projected onto the growing WKB mode, whose root a secant
method finds with probes that stop at T instead of running through the
whole pole cascade. The binary discriminant stays the ground truth: two
full-horizon probes a bracket width apart must still classify differently
around the root (the certificate), and if they do not, the end game falls
back to bisection at the fine tolerance. The toy model is bisected on its
maxima count throughout.

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

from .classify import ClassificationError, ClassTag, SolutionClass, classify, count_toy_maxima
from .equations import TOY_MODEL, Direction, Equation, InitialData, ModeKind, branch_curve, energy
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


def _positive(eq: Equation, mode: SearchMode) -> bool:
    return eq.modes[mode.kind].direction is Direction.POSITIVE_T


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

_COARSE = {"rel_tol": 1e-8, "abs_tol": 1e-10}
_FINE_WIDTH = 1e-5  # bracket width at which the coarse phase hands over


def _fine_cfg(eq: Equation, cfg: IntegrationConfig, tol: float) -> IntegrationConfig:
    # Flip points move by ~3e3 * rel_tol for the second equation and ~1e2 *
    # rel_tol for the first, so the end game runs tight enough for tol to
    # be meaningful.
    fine_rel = min(1e-10, tol / eq.fine_tol_divisor)
    return replace(cfg, rel_tol=max(fine_rel, 1e-13), abs_tol=max(fine_rel * 1e-2, 1e-15))


def _probe_cfg(eq, mode, x, cfg: IntegrationConfig, coarse: bool, max_poles=None) -> IntegrationConfig:
    kw = {}
    if coarse:
        kw.update(_COARSE)
    if cfg.t_horizon is None and not _positive(eq, mode):
        kw["t_horizon"] = _negative_horizon(eq, mode, x)
    if max_poles is not None:
        kw["max_poles"] = max_poles
    return replace(cfg, **kw) if kw else cfg


_NEGATIVE_KEYS = {ClassTag.POLE_CASCADE: "cascade", ClassTag.STABLE_OSCILLATION: "stable"}


def _negative_class(eq, mode, x, cfg, coarse) -> SolutionClass:
    pc = _probe_cfg(eq, mode, x, cfg, coarse)
    cls = classify(eq, integrate(eq, _initial_data(mode, x), Direction.NEGATIVE_T, pc))
    if cls.tag not in _NEGATIVE_KEYS:
        raise BisectionError(f"probe x = {x!r} classified as {cls.tag.value}", probe=x)
    return cls


def _signature(eq, mode, x, cfg, coarse, n_poles) -> tuple[int, ...]:
    pc = _probe_cfg(eq, mode, x, cfg, coarse, max_poles=n_poles)
    traj = integrate(eq, _initial_data(mode, x), Direction.POSITIVE_T, pc)
    return tuple(p.approach_sign for p in traj.poles)


def _toy_count(a: float, cfg: IntegrationConfig, coarse: bool = True) -> int:
    kw = dict(_COARSE) if coarse else {}
    pc = replace(cfg, **kw) if kw else cfg
    traj = integrate(TOY_MODEL, InitialData(a), Direction.POSITIVE_T, pc)
    return count_toy_maxima(traj)


def _discriminant(eq, mode, cfg, n_poles=None):
    """Class key of a trial initial datum, as a function of (x, coarse)."""
    if eq.first_order:
        return lambda x, coarse=True: _toy_count(x, cfg, coarse)
    if _positive(eq, mode):
        return lambda x, coarse=True: _signature(eq, mode, x, cfg, coarse, n_poles)
    return lambda x, coarse=True: _NEGATIVE_KEYS[_negative_class(eq, mode, x, cfg, coarse).tag]


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
        index_exponent = 1.0 / eq.modes[mode.kind].exponent
        n_poles = int((max(abs(lo), abs(hi)) / 1.2) ** index_exponent) + 8
    disc = _discriminant(eq, mode, cfg, n_poles)

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


def _half_steps(disc, lo, hi, k_lo, k_hi, stop, coarse):
    while hi - lo > stop:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        k_mid = disc(mid, coarse)
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
    """Fallback end game: halve the coarse bracket at the fine tolerance."""
    # The coarse and tight integrators place the flip at slightly different
    # points, so the coarse-phase bracket may no longer straddle the tight
    # flip. Re-anchor the endpoints at the tight tolerance, widening until
    # they disagree again.
    k_lo, k_hi = disc(lo, False), disc(hi, False)
    grow = max(hi - lo, _FINE_WIDTH)
    tries = 0
    while not _keys_differ(k_lo, k_hi):
        lo, hi = lo - grow, hi + grow
        grow *= 2.0
        tries += 1
        if tries > 12:
            raise BisectionError(
                f"tight-tolerance flip escaped the bracket around {0.5 * (lo + hi)!r}"
            )
        k_lo, k_hi = disc(lo, False), disc(hi, False)
    return _half_steps(disc, lo, hi, k_lo, k_hi, tol, coarse=False)


class _Unmatched(Exception):
    """A short probe did not end on the real axis at the matching time with
    the expected poles behind it."""


def _secant(g, x0, x1, stop, max_iter=12):
    """Root of g by the secant method from x0, x1; None if it does not
    settle to a step below ``stop`` within ``max_iter`` steps."""
    g0, g1 = g(x0), g(x1)
    for _ in range(max_iter):
        if g1 == g0:
            return x1 if g1 == 0.0 else None
        x2 = x1 - g1 * (x1 - x0) / (g1 - g0)
        if not math.isfinite(x2):
            return None
        if abs(x2 - x1) < stop:
            return x2
        x0, g0, x1, g1 = x1, g1, x2, g(x2)
    return None


def _matching_time(eq, traj, n_poles):
    """Matching time on a trajectory close to the separatrix: where it
    stops tracking the separatrix. In the negative direction that is the far
    end of the branch-hugging window; in the positive one, the dip of |y|
    between the last shared pole and the next."""
    if traj.direction is Direction.NEGATIVE_T:
        win = _branch_window(eq, traj) or _branch_window(eq, traj, band=1e-2)
        return None if win is None else float(win[0])
    m = n_poles - 2
    if len(traj.poles) <= m or traj.poles[m].entry_index is None:
        return None
    first = traj.poles[m - 1].exit_index if m else 0
    idx = traj.real_indices()
    idx = idx[(idx >= first) & (idx <= traj.poles[m].entry_index)]
    return float(traj.t[idx[np.argmin(np.abs(traj.y[idx]))]].real)


def _matched_root(eq, mode, cfg, lo, hi, tol, n_poles):
    """Separatrix datum inside the coarse bracket (lo, hi), by secant
    root-finding on a continuous discriminant; None where that cannot be
    trusted (the caller then bisects).

    The discriminant is the deviation d = y - y_sep from the separatrix's
    asymptotic series at a matching time T, projected onto the growing WKB
    mode of d'' = V d: g = d' + (sigma sqrt(V) + V_t / (4 V)) d, which
    vanishes on the decaying mode. Probes stop at T. A first pass matches
    at T1, where the coarse bracket's midpoint x_mid leaves the separatrix.
    The second pass starts 10 w1 either side of the first root x1 (w1 the
    first pass's step tolerance) and matches at T2, where deviations have
    grown by w0 / w1 over T1 (w0 the coarse width) - but by at most
    3 |x_mid - x1| / w1, so that its start points deviate at T2 by at most
    30 times what the midpoint did at T1, however close the midpoint lies to
    the root.
    """
    direction = eq.modes[mode.kind].direction
    sigma = direction.sign
    series = eq.separatrix[direction]
    x_mid = 0.5 * (lo + hi)
    pc = _probe_cfg(eq, mode, x_mid, cfg, True, n_poles)
    ref = integrate(eq, _initial_data(mode, x_mid), direction, pc)
    t1 = _matching_time(eq, ref, n_poles)
    if t1 is None:
        return None
    rt = ref.real_t()
    branch = 1.0 if ref.real_y()[np.argmin(np.abs(rt - t1))] >= 0.0 else -1.0
    n_before = sum(1 for p in ref.poles if sigma * (p.location - t1) < 0.0)

    def discriminant(t_match):
        pc = replace(cfg, t_horizon=t_match, max_poles=n_poles or cfg.max_poles)
        y_sep, yp_sep, v, v_t = series(t_match, branch)
        if v <= 0.0:
            raise _Unmatched
        weight = sigma * math.sqrt(v) + v_t / (4.0 * v)

        def g(x):
            traj = integrate(eq, _initial_data(mode, x), direction, pc)
            if (traj.stopped_by != "horizon" or traj.terminal_t != t_match
                    or traj.t[-1].imag != 0.0 or len(traj.poles) != n_before):
                raise _Unmatched
            return (traj.yp[-1].real - yp_sep) + weight * (traj.y[-1].real - y_sep)

        return g, math.sqrt(v)

    w1 = 1e-3 * (hi - lo)
    try:
        g1, rate = discriminant(t1)
        x1 = _secant(g1, lo, hi, w1)
        if x1 is None:
            return None
        growth = max(min(hi - lo, 3.0 * abs(x_mid - x1)), w1) / w1
        g2, _ = discriminant(t1 + sigma * math.log(growth) / rate)
        return _secant(g2, x1 - 10.0 * w1, x1 + 10.0 * w1, tol / 20.0)
    except _Unmatched:
        return None


def _certificate(probe, value, w):
    """Fine-tolerance, full-horizon keys at value -+ w/2. Returns the pole
    count of the stable side (the positive direction's probe reports its
    own), or None when the two keys agree."""
    (k_lo, n_lo), (k_hi, n_hi) = probe(value - 0.5 * w), probe(value + 0.5 * w)
    if not _keys_differ(k_lo, k_hi):
        return None
    return n_lo if k_lo == "stable" else n_hi


def bisect(
    eq: Equation,
    mode: SearchMode | ModeKind | str,
    bracket: tuple[float, float],
    tol: float = 1e-9,
    cfg: IntegrationConfig | None = None,
    index: int = 1,
) -> EigenvalueRecord:
    """Locate the critical value inside one bracket to the requested width.

    The endpoints must classify differently. Coarse-tolerance bisection
    narrows the bracket to ``_FINE_WIDTH``; the end game then finds the
    root of a continuous matching discriminant (:func:`_matched_root`) at
    a tolerance tied to ``tol``. The binary discriminant stays the ground
    truth: the probes at value -+ w/2, with w the width fine bisection
    would reach (the coarse width over 2^m, just below ``tol``), must
    classify differently. When they do not, or the matching fails, the
    end game falls back to fine-tolerance bisection.
    """
    mode = SearchMode.coerce(mode)
    if cfg is None:
        cfg = IntegrationConfig()
    if tol < 10.0 * cfg.rel_tol:
        raise ValueError(f"tol = {tol} is below 10 * rel_tol = {10 * cfg.rel_tol}")
    if eq.first_order:
        raise ValueError("use toy_eigen_table for the toy model")
    cfg_fine = _fine_cfg(eq, cfg, tol)

    lo, hi = bracket
    n_poles = None
    if _positive(eq, mode):
        sig_lo = _signature(eq, mode, lo, cfg_fine, True, index + 6)
        sig_hi = _signature(eq, mode, hi, cfg_fine, True, index + 6)
        common = min(len(sig_lo), len(sig_hi))
        if sig_lo[:common] == sig_hi[:common]:
            raise BisectionError(f"bracket endpoints {bracket} share the blow-up signature")
        m = next(i for i in range(common) if sig_lo[i] != sig_hi[i])
        n_poles = m + 2
        k_lo, k_hi = sig_lo[:n_poles + 1], sig_hi[:n_poles + 1]
        # m poles are traversed before the decaying stretch
        probe = lambda x: (_signature(eq, mode, x, cfg_fine, False, n_poles), m)  # noqa: E731
    else:
        def probe(x):
            cls = _negative_class(eq, mode, x, cfg_fine, coarse=False)
            return _NEGATIVE_KEYS[cls.tag], cls.pole_count
    disc = _discriminant(eq, mode, cfg_fine, n_poles=n_poles)
    if n_poles is None:
        k_lo, k_hi = disc(lo), disc(hi)
    if not _keys_differ(k_lo, k_hi):
        raise BisectionError(f"bracket endpoints {bracket} share the class {k_lo!r}")
    if hi - lo > _FINE_WIDTH:
        lo, hi = _half_steps(disc, lo, hi, k_lo, k_hi, _FINE_WIDTH, coarse=True)

    w = hi - lo
    while w > tol:
        w *= 0.5
    value = _matched_root(eq, mode, cfg_fine, lo, hi, tol, n_poles)
    pole_count = None if value is None else _certificate(probe, value, w)
    if pole_count is None:
        lo, hi = _fine_bisection(disc, lo, hi, tol)
        value, w = 0.5 * (lo + hi), hi - lo
        pole_count = _certificate(probe, value, w)
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
    direction = eq.modes[mode.kind].direction
    init = _initial_data(mode, value)
    if direction is Direction.POSITIVE_T:
        pc = replace(cfg, t_horizon=25.0, max_step=min(cfg.max_step, 0.05))
        traj = integrate(eq, init, direction, pc)
        return classify(eq, traj)

    turn = eq.turning_point(_trial_energy(eq, mode, value))
    rate = eq.instability_rate(turn)
    split = math.log(1e-3 / max(uncertainty, 1e-13)) / rate
    horizon = -(turn + max(2.0, 0.8 * split) + 2.0)
    pc = replace(cfg, t_horizon=horizon, max_step=min(cfg.max_step, 0.1))
    traj = integrate(eq, init, direction, pc)
    win = _branch_window(eq, traj)
    if win is None:
        raise ClassificationError(
            f"trajectory at {value!r} never tracks a branch curve within the band"
        )
    return classify(eq, traj, window=win)


def _branch_window(eq, traj, band: float = 1e-3):
    """Longest contiguous stretch where the trajectory hugs a branch curve."""
    rt, ry = traj.real_t(), traj.real_y()
    m = rt < -0.5
    rt, ry = rt[m], ry[m]
    if len(rt) < 4:
        return None
    bw = branch_curve(eq, rt)
    ok = (np.abs(ry - bw) <= band * bw) | (np.abs(ry + bw) <= band * bw)
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
    spec = eq.modes[mode.kind]
    p = spec.exponent
    sign = -1.0 if spec.origin < 0 else 1.0
    limit = 1.7 * spec.coeff * (n_max + 1) ** p + 3.0

    disc = _discriminant(eq, mode, cfg, n_poles=(n_max + 3) if _positive(eq, mode) else None)
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
    with _partial_table(records):
        base = _toy_count(a, cfg)
        while len(records) < n_max:
            if a > limit:
                raise BisectionError(f"toy scan ran past a = {a:.3g}")
            nxt = a + step
            have = base + len(records)
            if _toy_count(nxt, cfg) <= have:
                a = nxt
                continue
            # bisect to the first jump inside (a, nxt) on the key
            # count > have; a multi-jump interval is handled one jump at a time
            disc = lambda x, coarse: _toy_count(x, cfg, coarse) > have  # noqa: E731
            lo, hi = _half_steps(disc, a, nxt, False, True, max(tol, 1e-4), coarse=True)
            lo, hi = _half_steps(disc, lo, hi, False, True, tol, coarse=False)
            value = 0.5 * (lo + hi)
            records.append(EigenvalueRecord(len(records) + 1, value, hi - lo, 0, mode))
            a = value + tol
            if len(records) >= 2:
                gap = records[-1].value - records[-2].value
                step = max(0.25 * gap, 100 * tol)
    return records
