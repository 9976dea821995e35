#!/usr/bin/env python3
"""Benchmark of the painleve pipeline, run from the root of the repository:

    python3 perfbench/run.py --workload traj --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and README.md): ``traj``, ``eigen`` and ``toy``.
Ops run in whole rounds until ``--seconds`` have passed; every output is
checked. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
same ops untraced and then traced, prints the per-layer metrics and writes
the spans to ``perfbench/out/``. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds the full report (every metric with its unit, raw wall times, and run
metadata). Times are CPU times at a reference speed (see speed.py). The exit
code is 1 when any op failed its check.
"""

import os

# The numeric libraries must see these before numpy is first imported; the
# benchmark is one process on a 2-core machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

try:
    import workloads  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: {exc}")
import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# Percentile reported as op_tail_s, on every workload (see README.md).
TAIL_PCT = 90.0

# Metric names and units come from BENCHMARK.json: end_to_end with --trace 0,
# per_layer with --trace 1.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Printed in the report line only: fail_frac is 0 on working code, and each
# error exists on some workloads only. They act through "correct" and the
# exit code (see workloads.py for the limits).
REPORT_ONLY = {"fail_frac": "frac", "max_abs_err": "1", "max_energy_defect": "rel_tol*scale"}


def _rounds(workload, seed):
    rng = np.random.default_rng(seed)
    while True:
        yield workload.make_round(rng)


@dataclass(frozen=True)
class Op:
    input: object
    seconds: float       # wall time
    ref_seconds: float   # CPU time at the reference speed
    check: workloads.Check


def run_pass(workload, api, inputs, seconds, tracer=None):
    """Run ops in whole rounds until ``seconds`` have passed, or replay the
    ops of ``inputs`` when it is a list. Returns a list of Op. Untraced, the
    kernel is also timed inside ops, from the integrate calls."""
    clock = speed.Clock()

    def one_op(x):
        try:
            if tracer is None:
                return workload.run(api, x)
            tracer.op = len(clock.calls)
            return tracer.call("op", workload.run, (api, x))
        except workloads.OP_ERRORS:
            return None

    xs, checks = [], []
    ticks = [] if tracer else [(api, "integrate"), (workloads.pv_eigensolver, "integrate")]
    start = perf_counter()
    rounds = iter([inputs]) if isinstance(inputs, list) else inputs
    with speed.sampling(clock, ticks):
        for rnd in rounds:
            for x in rnd:
                result = clock(one_op, x)
                xs.append(x)
                checks.append(workloads.Check(False) if result is None else workload.check(x, result))
            if perf_counter() - start >= seconds:
                break
    return [Op(*fields) for fields in zip(xs, clock.seconds(), clock.reference_seconds(), checks)]


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload_name, seed):
    """Median (wall, reference) time of a fresh interpreter that imports the
    package and generates the first round of inputs. The reference time is
    the interpreter's CPU time scaled by the kernel, as in speed.py."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload_name,
           "--seed", str(seed)]
    walls, cpus, kernels = [], [], [speed.kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        t0, c0 = perf_counter(), _children_cpu()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        walls.append(perf_counter() - t0)
        cpus.append(_children_cpu() - c0)
        kernels.append(speed.kernel_seconds())
    return (statistics.median(walls),
            statistics.median(cpus) * speed.CAL_REF_S / statistics.median(kernels))


def _time_metrics(times, setup):
    return {
        "setup_s": setup,
        "ops_per_s": len(times) / float(times.sum()),
        "op_p50_s": float(np.median(times)),
        "op_tail_s": float(np.percentile(times, TAIL_PCT)),
    }


def end_to_end(workload, done, setup):
    """Metrics at the reference speed, the same from raw wall times, and the
    op_tail_s percentile with its sample counts."""
    checks = [op.check for op in done]
    errs = [c.abs_err for c in checks if c.abs_err is not None]
    defects = [c.energy_defect for c in checks if c.energy_defect is not None]
    ref = np.array([op.ref_seconds for op in done])
    metrics = {
        **_time_metrics(ref, setup[1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": sum(not c.ok for c in checks) / len(checks),
        "max_abs_err": max(errs) if errs else None,
        "max_energy_defect": max(defects) if defects else None,
    }
    raw = _time_metrics(np.array([op.seconds for op in done]), setup[0])
    tail = {"pct": TAIL_PCT, "samples": len(ref),
            "beyond": int(np.sum(ref > metrics["op_tail_s"]))}
    return metrics, raw, tail


def metadata(workload, args, load_start):
    def git_sha():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "seed": args.seed, "seed_applies": workload.seed_applies,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": load_start, "loadavg_end": list(os.getloadavg()),
    }


def benchmark(workload, seed, seconds, trace, trace_path=None):
    """One run: returns (final-line dict, report dict)."""
    api = workloads.layer_api()
    workloads.warm_up(api)
    if not trace:
        setup = measure_setup(workload.name, seed)
        done = run_pass(workload, api, _rounds(workload, seed), seconds)
        metrics, raw, tail = end_to_end(workload, done, setup)
        shown = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
        report = {**shown, **{k: {"value": metrics[k], "unit": u} for k, u in REPORT_ONLY.items()},
                  "raw_wall": raw, "op_tail": tail}
    else:
        # Same ops twice: untraced for the overhead baseline, then traced.
        plain = run_pass(workload, api, _rounds(workload, seed), seconds / 2)
        tracer = spans.Tracer()
        with spans.traced(api, tracer):
            traced_ops = run_pass(workload, api, [op.input for op in plain], 0.0, tracer)
        done = plain + traced_ops
        values = spans.layer_metrics(tracer.spans, workload.eigs_per_op * len(traced_ops))
        values["trace_overhead_frac"] = (sum(op.ref_seconds for op in traced_ops)
                                         / sum(op.ref_seconds for op in plain) - 1.0)
        shown = {k: {"value": float(values[k]), "unit": u} for k, u in PER_LAYER.items()}
        report = {**shown, "spans": len(tracer.spans)}
        if trace_path is not None:
            tracer.write(trace_path)
            report["trace_file"] = str(trace_path.relative_to(ROOT))
    failed = sum(not op.check.ok for op in done)
    final = {"correct": failed == 0, "attempted": len(done), "failed": failed, "metrics": shown}
    return final, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, then exit (times setup_s)")
    args = parser.parse_args(argv)
    load_start = list(os.getloadavg())
    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        next(_rounds(workload, args.seed))
        return 0
    trace_path = HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl"
    final, report = benchmark(workload, args.seed, args.seconds, args.trace, trace_path=trace_path)
    report["meta"] = metadata(workload, args, load_start)
    print(json.dumps({"report": report}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
