"""Inputs, operations and output checks of the benchmark workloads.

A workload is a stream of rounds drawn from one seeded generator. A round is
a fixed mix of operations (ops); the seed moves each op inside its cell of
the input range (``traj``), or only orders the ops (``eigen``; ``toy``
ignores it). The loop in ``run.py`` stops on round boundaries, so every run
measures the same mix of expensive and cheap ops whatever its length, and
runs with different seeds stay comparable.

The package is imported from ``src/`` next to this directory, never from an
installed copy, so the benchmark always measures the sources it ships with.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "painleve" / "__init__.py").is_file():
    raise ImportError(f"no painleve sources under {SRC}")
sys.path.insert(0, str(SRC))

import painleve as pv  # noqa: E402
import painleve.eigensolver as pv_eigensolver  # noqa: E402

if Path(pv.__file__).resolve().parent != SRC / "painleve":
    raise ImportError(f"painleve was imported from {pv.__file__}, not from {SRC}")

# Errors an op may raise on bad luck rather than on a harness bug: they count
# as failed ops. Anything else propagates and aborts the run.
OP_ERRORS = (pv.IntegrationError, pv.ClassificationError, pv.BisectionError, pv.PartialTableError)

# Reference critical values, copied from tests/conftest.py. The benchmark
# keeps its own copy so that an edit to the tests cannot loosen its checks.
REFS = {
    ("p1", "slope"): {1: 1.851854034, 2: 3.004031103, 3: 3.905175320, 4: 4.683412410},
    ("p1", "value"): {1: -0.7401954236, 2: -1.206703845, 3: -1.484375587, 4: -1.69951765},
    ("p2", "slope"): {1: 0.5950825526, 2: 1.528605106, 3: 2.155132869, 4: 2.700745985},
    ("p2", "value"): {1: 1.222873339, 2: 1.533883935, 3: 1.754537281, 4: 1.93061783},
}
TOY_REF = {1: 1.602573, 2: 2.388358, 3: 2.976682}
VALUE_TOL = 1e-6        # a critical value further than this from its reference fails
# Energy-identity budget per equation, in units of energy_unit(traj). The
# worst defects measured on 1230 traj inputs (31 seeds and 300 uniform draws)
# were 1.08 for P-I (28-pole cascades) and 18.2 for P-II (two-pole runs from
# slope0 near 3.1); cascades of 44-53 poles stayed under 3.6.
ENERGY_BUDGET = {"p1": 10.0, "p2": 40.0}
COARSE_REL_TOL = 1e-8   # eigensolver._COARSE["rel_tol"], the tolerance of scan and coarse probes


def layer_api() -> SimpleNamespace:
    """The public functions the ops call. Tracing replaces these attributes."""
    return SimpleNamespace(
        integrate=pv.integrate,
        classify=pv.classify,
        fluctuation_integral=pv.fluctuation_integral,
        scan_brackets=pv.scan_brackets,
        bisect=pv.bisect,
        toy_eigen_table=pv.toy_eigen_table,
    )


# The names painleve.eigensolver imports from the integrator and the
# classifier. Probes made inside the eigensolver go through these.
EIGENSOLVER_IMPORTS = ("integrate", "classify", "count_toy_maxima")


@contextlib.contextmanager
def patched(replacements):
    """Set each (namespace, attribute, value) while the block runs."""
    saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in replacements]
    for ns, attr, value in replacements:
        setattr(ns, attr, value)
    try:
        yield
    finally:
        for ns, attr, value in reversed(saved):
            setattr(ns, attr, value)


@dataclass(frozen=True)
class Check:
    ok: bool
    abs_err: float | None = None         # worst |value - reference| of the op
    energy_defect: float | None = None   # worst |H - H(0) - I| / (rel_tol * scale)


@dataclass(frozen=True)
class Workload:
    name: str
    seed_applies: bool
    eigs_per_op: int         # critical values one op computes
    make_round: Callable[[np.random.Generator], list]
    run: Callable[[SimpleNamespace, object], object]
    check: Callable[[object, object], Check]


# ---------------------------------------------------------------- traj

@dataclass(frozen=True)
class TrajInput:
    eq: str
    y0: float
    slope0: float
    direction: str
    horizon: float


# (equation, mode, range of the scanned variable, direction). The ranges are
# those of the session tables in tests/conftest.py, so they straddle the first
# 11-21 critical values and hold pole cascades as well as pole-free runs.
TRAJ_FAMILIES = (
    ("p1", "slope", (0.2, 9.0), "neg"),
    ("p1", "value", (-3.0, -0.1), "neg"),
    ("p2", "slope", (0.1, 8.8), "neg"),
    ("p2", "value", (0.3, 2.93), "pos"),
)


def traj_workload(cells: int = 10, neg_horizon: float = -40.0, pos_horizon: float = 30.0) -> Workload:
    def make_round(rng):
        ops = []
        for eq, mode, (lo, hi), direction in TRAJ_FAMILIES:
            # One draw near the centre of each of ``cells`` equal cells. Pole
            # cascades and pole-free runs alternate between neighbouring
            # critical values and differ 5x in cost, so wider draws would let
            # the seed change the op-time distribution, not only the inputs.
            edges = np.linspace(lo, hi, cells + 1)
            for a, b in zip(edges[:-1], edges[1:]):
                x = a + float(rng.uniform(0.4, 0.6)) * (b - a)
                y0, slope0 = (0.0, x) if mode == "slope" else (x, 0.0)
                horizon = neg_horizon if direction == "neg" else pos_horizon
                ops.append(TrajInput(eq, y0, slope0, direction, horizon))
        rng.shuffle(ops)
        return ops

    return Workload(
        name="traj",
        seed_applies=True,
        eigs_per_op=0,
        make_round=make_round,
        run=_traj_run,
        check=_traj_check,
    )


def _traj_run(api, x: TrajInput):
    eq = pv.equation_from_name(x.eq)
    direction = pv.Direction.NEGATIVE_T if x.direction == "neg" else pv.Direction.POSITIVE_T
    traj = api.integrate(eq, pv.InitialData(x.y0, x.slope0), direction,
                         pv.IntegrationConfig(t_horizon=x.horizon))
    cls = api.classify(eq, traj)
    fluct = api.fluctuation_integral(eq, traj) if x.direction == "neg" else None
    return traj, cls, fluct


_TRAJ_TAGS = {
    "neg": {pv.ClassTag.POLE_CASCADE, pv.ClassTag.STABLE_OSCILLATION},
    "pos": {pv.ClassTag.DIVERGENT_POSITIVE, pv.ClassTag.DIVERGENT_NEGATIVE},
}


def energy_unit(traj) -> float:
    """rel_tol times the path's H-sensitivity, the unit of the energy defect.

    H is a difference of terms that grow like |y|^3 (P-I) or |y|^4 (P-II)
    near a pole, so its absolute accuracy is rel_tol times the path's
    H-sensitivity |dH/dy||y| + |dH/dy'||y'|, as in tests/test_equations.py.
    """
    ay, ayp = np.abs(traj.y), np.abs(traj.yp)
    sens = (6.0 * ay**3 if traj.equation is pv.PAINLEVE_I else 2.0 * ay**4) + ayp**2
    return traj.config.rel_tol * max(1.0, float(sens.max()))


def _traj_check(x: TrajInput, result) -> Check:
    traj, cls, fluct = result
    if cls.tag not in _TRAJ_TAGS[x.direction]:
        return Check(False)
    if fluct is None:
        return Check(True)
    h = pv.energy(traj.equation, traj.real_y(), traj.real_yp())
    ratio = float(np.max(np.abs(h - h[0] - fluct))) / energy_unit(traj)
    return Check(ratio <= ENERGY_BUDGET[x.eq], energy_defect=ratio)


# ---------------------------------------------------------------- eigen

@dataclass(frozen=True)
class EigenInput:
    eq: str
    mode: str
    index: int
    window: tuple[float, float]


# One round: a critical value of each search mode. P-I slope/value and P-II
# slope bisect on classify (negative direction); P-II value bisects on the
# blow-up signature under the pole cap (positive direction). The indices keep
# a round near 15 s while checking non-trivial pole counts (1, 1, 0, 2).
EIGEN_ROUND = (("p1", "slope", 2), ("p1", "value", 2), ("p2", "slope", 1), ("p2", "value", 2))
SCAN_STEPS = 4


def eigen_workload(round_ops=EIGEN_ROUND, tol: float = 1e-9, refs=REFS) -> Workload:
    def make_round(rng):
        # The seed sets only the order. Where the window sits decides how
        # often bisect re-anchors its bracket (16-26 fine probes for the same
        # value), so seeded windows spread op_p50_s by 19 % across seeds.
        ops = []
        for eq, mode, n in round_ops:
            ref = refs[(eq, mode)]
            gaps = [abs(ref[n] - ref[k]) for k in (n - 1, n + 1) if k in ref]
            width = 0.6 * min(gaps)   # holds no neighbouring critical value
            # 1.6 scan steps above lo: off the scan grid
            lo = ref[n] - 0.4 * width
            ops.append(EigenInput(eq, mode, n, (lo, lo + width)))
        rng.shuffle(ops)
        return ops

    def run(api, x: EigenInput):
        eq = pv.equation_from_name(x.eq)
        lo, hi = x.window
        # a step a hair over a quarter keeps rounding from adding a sixth probe
        step = (hi - lo) / SCAN_STEPS * (1.0 + 1e-9)
        brackets = api.scan_brackets(eq, x.mode, x.window, step)
        if len(brackets) != 1:
            return brackets, None
        return brackets, api.bisect(eq, x.mode, brackets[0], tol=tol, index=x.index)

    def check(x: EigenInput, result) -> Check:
        _brackets, rec = result
        if rec is None:
            return Check(False)
        err = abs(rec.value - refs[(x.eq, x.mode)][x.index])
        # pole-count law: floor(n/2) in the negative direction, n in the positive
        poles = x.index if (x.eq, x.mode) == ("p2", "value") else x.index // 2
        return Check(err <= VALUE_TOL and rec.pole_count == poles, abs_err=err)

    return Workload(
        name="eigen",
        seed_applies=True,
        eigs_per_op=1,
        make_round=make_round,
        run=run,
        check=check,
    )


# ---------------------------------------------------------------- toy

def toy_workload(n: int = 3, refs=TOY_REF) -> Workload:
    def check(_x, records) -> Check:
        if len(records) != n:
            return Check(False)
        err = max(abs(r.value - refs[r.index]) for r in records)
        return Check(err <= VALUE_TOL, abs_err=err)

    return Workload(
        name="toy",
        seed_applies=False,
        eigs_per_op=n,
        make_round=lambda _rng: [n],
        run=lambda api, size: api.toy_eigen_table(size, tol=1e-6),
        check=check,
    )


WORKLOADS = {"traj": traj_workload, "eigen": eigen_workload, "toy": toy_workload}


def warm_up(api) -> None:
    """Integrate each equation once, so that first-call costs are not timed."""
    cfg = pv.IntegrationConfig(t_horizon=-1.0)
    for eq in (pv.PAINLEVE_I, pv.PAINLEVE_II):
        traj = api.integrate(eq, pv.InitialData(0.0, 1.0), pv.Direction.NEGATIVE_T, cfg)
        api.fluctuation_integral(eq, traj)
    api.integrate(pv.TOY_MODEL, pv.InitialData(0.5), pv.Direction.POSITIVE_T,
                  pv.IntegrationConfig(t_horizon=1.0))
