"""Command-line front end.

Subcommands:

* ``trajectory`` - integrate one initial-value problem and write a CSV of
  real-axis samples, pole markers and the branch curves.
* ``eigen``      - compute an eigenvalue table and write it as JSON.
* ``constants``  - print the closed-form growth constants; given a table
  produced by ``eigen``, also report the Richardson estimates and their
  deviations from the closed forms.

Every artifact embeds a manifest (command echo, version, wall time, input
hash); a trajectory manifest also holds the integration config snapshot,
and an eigen manifest the relative tolerance the search ran at. Exit
codes: 0 success, 1 failure, 2 partial table (``eigen``), 3 truncated run
(``trajectory``: the pole cap or a step underflow stopped it). Defaults
that depend on the equation (direction, search mode, extraction rule) come
from the equation's spec.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import closed_form_constants, extract_constant
from .classify import count_toy_maxima
from .equations import Direction, InitialData, ModeKind, branch_curve, equation_from_name
from .eigensolver import PartialTableError, SearchMode, eigen_table
from .integrator import IntegrationConfig, IntegrationError, integrate


def _manifest(args: argparse.Namespace, parser_name: str, extra: dict | None = None) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    blob = json.dumps(echo, sort_keys=True, default=str)
    manifest = {
        "command": parser_name,
        "arguments": echo,
        "input_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "tool_version": __version__,
        "wall_time_s": None,  # filled just before writing
    }
    if extra:
        manifest.update(extra)
    return manifest


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_trajectory(args) -> int:
    eq = equation_from_name(args.eq)
    direction = next(iter(eq.horizons)) if args.direction is None else Direction(args.direction)
    kw = {} if args.rel_tol is None else {"rel_tol": args.rel_tol}
    cfg = IntegrationConfig(t_horizon=args.horizon, **kw)
    init = InitialData(args.y0, args.slope)
    started = time.time()
    traj = integrate(eq, init, direction, cfg)
    manifest = _manifest(args, "trajectory",
                         {"config": dataclasses.asdict(cfg), "stopped_by": traj.stopped_by})

    rows = [(float(t), float(y), 0.0) for t, y in zip(traj.t, traj.y)]
    rows += [(p.location, float("nan"), 1.0) for p in traj.poles]
    rows.sort(key=lambda r: r[0], reverse=direction is Direction.NEGATIVE_T)

    if eq.first_order:
        manifest["maxima_count"] = count_toy_maxima(traj)
    manifest["pole_count"] = len(traj.poles)
    manifest["wall_time_s"] = round(time.time() - started, 6)
    has_branches = eq.branch_denom is not None

    def branches(t):
        if has_branches and t < 0.0:
            b = float(branch_curve(eq, np.asarray([t]))[0])
            return b, -b
        return None, None

    if args.format == "json":
        payload = {
            "manifest": manifest,
            "columns": ["t", "y", "branch_plus", "branch_minus", "pole_marker"],
            "rows": [[t, None if not np.isfinite(y) else y, *branches(t), int(marker)]
                     for t, y, marker in rows],
        }
        _write(args.out, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    else:
        lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
        lines.append("t,y,branch_plus,branch_minus,pole_marker")
        for t, y, marker in rows:
            bp, bm = branches(t)
            bps = "" if bp is None else f"{bp:.12g}"
            bms = "" if bm is None else f"{bm:.12g}"
            ystr = "" if not np.isfinite(y) else f"{y:.12g}"
            lines.append(f"{t:.12g},{ystr},{bps},{bms},{int(marker)}")
        _write(args.out, "\n".join(lines) + "\n")
    if traj.truncated:
        print(f"trajectory truncated: stopped by {traj.stopped_by} at t = {traj.terminal_t:.6g} "
              f"after {len(traj.poles)} poles", file=sys.stderr)
        return 3
    return 0


def _records_payload(records, mode_name):
    return [
        {
            "index": r.index,
            "value": r.value,
            "bracket_width": r.bracket_width,
            "pole_count": r.pole_count,
            "mode": mode_name,
            "fixed_value": r.mode.fixed_value,
        }
        for r in records
    ]


def cmd_eigen(args) -> int:
    eq = equation_from_name(args.eq)
    started = time.time()
    status = 0
    kind = ModeKind(args.mode)
    if kind not in eq.modes:  # an equation with a single search mode ignores --mode
        (kind,) = eq.modes
    mode_name = kind.value
    try:
        records = eigen_table(eq, SearchMode(kind), args.n, tol=args.tol, rel_tol=args.rel_tol)
    except PartialTableError as exc:
        records, status = exc.records, 2
    manifest = _manifest(args, "eigen",
                         {"rel_tol": args.rel_tol, "equation": args.eq, "mode": mode_name})
    manifest["wall_time_s"] = round(time.time() - started, 6)
    if args.format == "csv":
        lines = ["# manifest: " + json.dumps(manifest, sort_keys=True),
                 "index,value,bracket_width,pole_count,mode"]
        lines += [f"{r.index},{r.value:.12g},{r.bracket_width:.6g},{r.pole_count},{mode_name}"
                  for r in records]
        _write(args.out, "\n".join(lines) + "\n")
    else:
        payload = {
            "manifest": manifest,
            "equation": args.eq,
            "mode": mode_name,
            "complete": status == 0,
            "records": _records_payload(records, mode_name),
        }
        _write(args.out, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if status:
        print(f"partial table: {len(records)} of {args.n} records", file=sys.stderr)
    return status


def cmd_constants(args) -> int:
    started = time.time()
    consts = closed_form_constants()
    result = {"closed_forms": dataclasses.asdict(consts)}
    if args.table:
        try:
            with open(args.table) as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise TypeError(f"its top level is {json.dumps(payload)[:40]}, not a JSON object")
            records = payload["records"]
            eq_name, mode_name = payload["equation"], payload["mode"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            print(f"cannot read table: {exc}", file=sys.stderr)
            return 1
        if not records:
            print("table holds no records", file=sys.stderr)
            return 1
        if not isinstance(records, list) or any(
            not isinstance(r, dict) or "value" not in r or "index" not in r for r in records
        ):
            print("table records need 'index' and 'value' fields", file=sys.stderr)
            return 1
        for r in records:
            index, value = r["index"], r["value"]
            # bool is an int subclass, but true/false is neither an index nor a value
            if not isinstance(index, int) or isinstance(index, bool):
                print(f"cannot read table: index {index!r} is not an integer", file=sys.stderr)
                return 1
            # a JSON integer may lie past the float range, where math.isfinite overflows
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not abs(value) <= sys.float_info.max):
                print(f"cannot read table: value {value!r} of index {index} is not a real number",
                      file=sys.stderr)
                return 1
        try:
            spec = equation_from_name(str(eq_name)).modes[ModeKind(str(mode_name))]
        except (ValueError, KeyError):
            spec = None
        if spec is None or spec.constant is None:
            print(f"no extraction rule for equation/mode {(eq_name, mode_name)}", file=sys.stderr)
            return 1
        p, order, split = spec.exponent, spec.order, spec.split_even_odd
        records = sorted(records, key=lambda r: r["index"])
        if [r["index"] for r in records] != list(range(1, len(records) + 1)):
            print("table indices must run 1..N without gaps", file=sys.stderr)
            return 1
        values = [r["value"] for r in records]
        if split:
            max_order = min(len(values) // 2, (len(values) - 1) // 2) - 1
        else:
            max_order = len(values) - 1
        order = min(order, max_order)
        if order < 1:
            print(f"table too short to extrapolate ({len(values)} records)", file=sys.stderr)
            return 1
        target = getattr(consts, spec.constant)

        def report(res):
            return {"estimate": res.estimate, "stability": res.stability, "deviation": res.estimate - target}

        extrapolation = {"exponent": p, "order": order, "closed_form": target}
        if split:
            even, odd = extract_constant(values, p, order, split_even_odd=True)
            extrapolation.update(even=report(even), odd=report(odd))
        else:
            extrapolation.update(report(extract_constant(values, p, order)))
        result["extrapolation"] = extrapolation
    manifest = _manifest(args, "constants")
    manifest["wall_time_s"] = round(time.time() - started, 6)
    result["manifest"] = manifest
    _write(args.out, json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painleve",
        description="Separatrix eigenvalue analysis of the first and second Painleve transcendents",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("trajectory", help="integrate one initial-value problem to CSV")
    p.add_argument("--eq", required=True, choices=["p1", "p2", "toy"])
    p.add_argument("--y0", type=float, default=0.0, help="initial value y(0)")
    p.add_argument("--slope", type=float, default=0.0, help="initial slope y'(0)")
    p.add_argument("--direction", choices=["neg", "pos"], default=None,
                   help="default: neg for p1/p2, pos for toy")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("eigen", help="critical initial conditions to JSON")
    p.add_argument("--eq", required=True, choices=["p1", "p2", "toy"])
    p.add_argument("--mode", choices=["slope", "value"], default="slope")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-10)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("constants", help="closed forms and extrapolation report")
    p.add_argument("--table", default=None, help="JSON table from the eigen subcommand")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IntegrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
