"""Regenerate the record ledger, ``tests/data/records.json``, from the repo's
root:

    PYTHONPATH=src python tests/regen_records.py

The ledger holds every record of the five session tables (index, value and
bracket width as ``float.hex()``, pole count), ``separatrix_check``'s tag
and pole count on each Painleve session record, the record of each
single-bracket end game of ``conftest.END_GAME_BRACKETS`` and
``conftest.P2_SLOPE_B1_BRACKETS``, the scan brackets and records of each op
of the benchmark's ``eigen`` round, and a manifest of the Python, numpy and
platform that computed them. ``test_ledger.py`` compares the session
tables, the end games and the ``eigen`` ops with it. Regenerate it only
with a change that moves records on purpose, and name the moved records
with that change.
"""

import json
import platform
import re
from pathlib import Path

import numpy as np

from conftest import END_GAME_BRACKETS, P2_SLOPE_B1_BRACKETS, SESSION_TABLES, benchmark_copy, session_table
from painleve import PAINLEVE_II, ModeKind, bisect, equation_from_name, scan_brackets, separatrix_check

LEDGER = Path(__file__).resolve().parent / "data" / "records.json"


def manifest():
    """What the last bits of a record depend on besides the code: Python's
    and numpy's arithmetic and the C library's math functions."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": "-".join((platform.system(), platform.machine(), *platform.libc_ver())),
    }


def _entry(rec):
    return [rec.index, rec.value.hex(), rec.bracket_width.hex(), rec.pole_count]


def ledger_entries(tables):
    """The ledger's records and checks of ``tables``, a map from a name of
    ``conftest.SESSION_TABLES`` to that table's records."""
    records = {name: [_entry(r) for r in table] for name, table in tables.items()}
    checks = {}
    for name, table in tables.items():
        eq = SESSION_TABLES[name][0]
        if not eq.first_order:
            checks[name] = [[c.tag.value, c.pole_count]
                            for c in (separatrix_check(eq, r.mode, r.value) for r in table)]
    return {"records": records, "checks": checks}


def end_game_entries():
    """The ledger's record of each single-bracket end game, a one-record
    table under its bracket's name, bisected at tol 1e-9."""
    brackets = {name: (eq, mode, bracket) for name, (eq, mode, bracket, _) in END_GAME_BRACKETS.items()}
    brackets.update({f"p2-slope-b1-{name}": (PAINLEVE_II, ModeKind.SLOPE, bracket)
                     for name, bracket in P2_SLOPE_B1_BRACKETS.items()})
    return {name: [_entry(bisect(eq, mode, bracket, tol=1e-9))] for name, (eq, mode, bracket) in brackets.items()}


def eigen_entries():
    """The ledger's scan brackets (``.hex()``) and their records of each op
    of perfbench/workloads.py's ``EIGEN_ROUND``, under the name
    ``eq-mode-n``. Each window is built as the benchmark builds it, from its
    own copies of the reference values and of the scan's step count, read
    without importing it."""
    refs, steps = benchmark_copy("REFS"), benchmark_copy("SCAN_STEPS")
    entries = {}
    for name, mode, n in benchmark_copy("EIGEN_ROUND"):
        ref, eq = refs[(name, mode)], equation_from_name(name)
        width = 0.6 * min(abs(ref[n] - ref[k]) for k in (n - 1, n + 1) if k in ref)
        lo = ref[n] - 0.4 * width
        hi = lo + width
        brackets = scan_brackets(eq, mode, (lo, hi), (hi - lo) / steps * (1.0 + 1e-9))
        entries[f"{name}-{mode}-{n}"] = {
            "brackets": [[a.hex(), b.hex()] for a, b in brackets],
            "records": [_entry(bisect(eq, mode, bracket, tol=1e-9, index=n)) for bracket in brackets],
        }
    return entries


def main():
    ledger = {"manifest": manifest(), **ledger_entries({name: session_table(name) for name in SESSION_TABLES}),
              "end_games": end_game_entries(), "eigen": eigen_entries()}
    text = json.dumps(ledger, indent=1)
    # one record or check per line, so that a moved record is a one-line diff
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(text + "\n")


if __name__ == "__main__":
    main()
