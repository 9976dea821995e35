"""Spans recorded around the public calls of each layer, and the per-layer
metrics derived from them.

The benchmark measures the layers from outside: it wraps the functions it
calls itself (the ``api`` namespace of ``workloads.layer_api``) and the
names ``painleve.eigensolver`` imported from the integrator and the
classifier, so probes made inside the eigensolver are seen as well. Spans
are kept in memory and written out once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import COARSE_REL_TOL, EIGENSOLVER_IMPORTS, patched, pv, pv_eigensolver


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, attrs_of=None):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, self.op, name, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        except Exception as exc:
            span.end = perf_counter()
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
        span.end = perf_counter()
        if attrs_of is not None:
            span.attrs.update(attrs_of(args, kwargs or {}, out))
        return out

    def wrap(self, fn, name, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_of)
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                                     "start": s.start, "end": s.end, **s.attrs}) + "\n")


def _integrate_attrs(args, kwargs, traj):
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    return {
        "rel_tol": (cfg or pv.IntegrationConfig()).rel_tol,
        "samples": len(traj.t),
        "poles": len(traj.poles),
        "stopped_by": traj.stopped_by,
    }


def _classify_attrs(args, _kwargs, _cls):
    return {"rel_tol": args[1].config.rel_tol}


# wrapped attribute -> (span name, attribute extractor). The layer is the
# part of the span name before the dot.
_SPANS = {
    "integrate": ("integrator.integrate", _integrate_attrs),
    "classify": ("classify.classify", _classify_attrs),
    "count_toy_maxima": ("classify.count_toy_maxima", None),
    "fluctuation_integral": ("equations.fluctuation_integral", None),
    "scan_brackets": ("eigensolver.scan_brackets", None),
    "bisect": ("eigensolver.bisect", None),
    "toy_eigen_table": ("eigensolver.toy_eigen_table", None),
}


@contextlib.contextmanager
def traced(api, tracer: Tracer):
    """Replace the functions in ``api`` and the names painleve.eigensolver
    imports by span-recording wrappers while the block runs."""
    targets = [(api, attr) for attr in vars(api)]
    targets += [(pv_eigensolver, attr) for attr in EIGENSOLVER_IMPORTS]
    with patched([(ns, attr, tracer.wrap(getattr(ns, attr), *_SPANS[attr]))
                  for ns, attr in targets]):
        yield


def layer_metrics(spans: list[Span], eigs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``eigs`` critical values computed).

    Busy fractions are shares of the total op time. A metric whose events do
    not occur on a workload (cascade samples on ``toy``, probes on ``traj``)
    reads 0.
    """
    ops = [s for s in spans if s.name == "op"]
    op_time = sum(s.dur for s in ops)
    by_name: dict[str, list[Span]] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_time[s.parent] += s.dur

    def parent_name(s):
        return spans[s.parent].name if s.parent is not None else None

    def probe_kind(s):
        parent = parent_name(s)
        if parent == "eigensolver.scan_brackets":
            return "scan"
        if parent == "eigensolver.bisect":
            return "coarse" if s.attrs.get("rel_tol") == COARSE_REL_TOL else "fine"
        if parent == "eigensolver.toy_eigen_table":
            return "toy"
        return None

    def busy(items):
        return sum(s.dur for s in items) / op_time

    def per(n, d):
        return n / d if d else 0.0

    integ = [s for s in by_name.get("integrator.integrate", []) if "error" not in s.attrs]
    calls = by_name.get("integrator.integrate", [])
    classify = by_name.get("classify.classify", [])
    cascade = [s for s in integ if s.attrs["poles"] > 0]
    polefree = [s for s in integ if s.attrs["poles"] == 0]
    kinds = [probe_kind(s) for s in calls]
    eig_self = sum(s.dur - child_time[s.id] for s in spans if s.name.startswith("eigensolver."))
    fine = [s for s, k in zip(calls, kinds) if k == "fine"]
    fine += [s for s in classify
             if parent_name(s) == "eigensolver.bisect" and s.attrs.get("rel_tol") != COARSE_REL_TOL]
    return {
        "integrator.calls_per_op": per(len(calls), len(ops)),
        "integrator.busy_frac": busy(calls),
        "integrator.samples_per_call": per(sum(s.attrs["samples"] for s in integ), len(integ)),
        "integrator.poles_per_call": per(sum(s.attrs["poles"] for s in integ), len(integ)),
        "integrator.us_per_sample.cascade": 1e6 * per(sum(s.dur for s in cascade),
                                                      sum(s.attrs["samples"] for s in cascade)),
        "integrator.us_per_sample.polefree": 1e6 * per(sum(s.dur for s in polefree),
                                                       sum(s.attrs["samples"] for s in polefree)),
        "integrator.truncated_frac": per(sum(s.attrs["stopped_by"] != "horizon" for s in integ),
                                         len(integ)),
        "classify.busy_frac": busy(classify),
        "classify.errors": sum(s.attrs.get("error") == "ClassificationError" for s in classify),
        "classify.toy_count_busy_frac": busy(by_name.get("classify.count_toy_maxima", [])),
        "equations.fluct_busy_frac": busy(by_name.get("equations.fluctuation_integral", [])),
        "eigensolver.probes_per_eig.scan": per(kinds.count("scan"), eigs),
        "eigensolver.probes_per_eig.coarse": per(kinds.count("coarse"), eigs),
        "eigensolver.probes_per_eig.fine": per(kinds.count("fine"), eigs),
        "eigensolver.fine_busy_frac": busy(fine),
        "eigensolver.self_frac": eig_self / op_time,
        "eigensolver.toy_probes_per_eig": per(kinds.count("toy"), eigs),
    }
