#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs, run from the root of
the repository:

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted, as a finite
number with its unit, on every workload in both trace modes, and that the
output checks have teeth: a perturbed reference value must show up as a
failed op in ``fail_frac`` and turn ``correct`` false, and so must an
energy-identity defect above its budget on ``traj``. Takes about 30 s.
"""

import dataclasses
import math
import sys

import run
import workloads


def tiny_traj():
    return workloads.traj_workload(cells=1, neg_horizon=-6.0, pos_horizon=4.0)


def inflated_traj():
    """tiny_traj with twice the energy budget added to each fluctuation integral."""
    def run(api, x):
        traj, cls, fluct = workloads.traj_workload().run(api, x)
        if fluct is not None:
            fluct = fluct + 2.0 * workloads.ENERGY_BUDGET[x.eq] * workloads.energy_unit(traj)
        return traj, cls, fluct
    return dataclasses.replace(tiny_traj(), run=run)


def tiny_eigen(refs=workloads.REFS):
    return workloads.eigen_workload(round_ops=(("p1", "slope", 1), ("p2", "value", 1)),
                                    tol=1e-6, refs=refs)


def tiny_toy(refs=workloads.TOY_REF):
    return workloads.toy_workload(n=1, refs=refs)


def _one_round(workload, trace):
    return run.benchmark(workload, seed=7, seconds=0.0, trace=trace)


def main():
    problems = []
    for name, make in (("traj", tiny_traj), ("eigen", tiny_eigen), ("toy", tiny_toy)):
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            final, report = _one_round(make(), trace)
            if set(final) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: final keys {sorted(final)}")
            if set(final["metrics"]) != set(names):
                problems.append(f"{name} trace={trace}: metrics {sorted(final['metrics'])}")
            for key, unit in names.items():
                m = final["metrics"].get(key, {})
                if m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
                    problems.append(f"{name} trace={trace}: {key} = {m}")
            if not final["correct"] or final["failed"] or final["attempted"] < 1:
                problems.append(f"{name} trace={trace}: unperturbed run failed: {final}")
            if trace == 0 and report["fail_frac"]["value"] != 0.0:
                problems.append(f"{name}: fail_frac {report['fail_frac']}")

    # A reference value moved by 1e-5 (ten times the 1e-6 limit) must fail.
    bad_refs = {k: dict(v) for k, v in workloads.REFS.items()}
    bad_refs[("p1", "slope")][1] += 1e-5
    bad_toy = {**workloads.TOY_REF, 1: workloads.TOY_REF[1] + 1e-5}
    # So must an energy-identity defect above its budget (3 of the 4 tiny traj
    # ops run in the negative direction and are checked).
    for name, workload, expect in (("traj", inflated_traj(), 0.75),
                                   ("eigen", tiny_eigen(bad_refs), 0.5),
                                   ("toy", tiny_toy(bad_toy), 1.0)):
        final, report = _one_round(workload, 0)
        if final["correct"] or report["fail_frac"]["value"] != expect:
            problems.append(f"perturbed {name} output not caught: {final['failed']} of "
                            f"{final['attempted']} failed, fail_frac {report['fail_frac']}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
