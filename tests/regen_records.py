"""Regenerate the record ledger, ``tests/data/records.json``, from the repo's
root:

    PYTHONPATH=src python tests/regen_records.py

The ledger holds every record of the five session tables (index, value and
bracket width as ``float.hex()``, pole count), ``separatrix_check``'s tag
and pole count on each Painleve session record, and a manifest of the
Python, numpy and platform that computed them. ``test_ledger.py`` compares
the session tables with it. Regenerate it only with a change that moves
records on purpose, and name the moved records with that change.
"""

import json
import platform
import re
from pathlib import Path

import numpy as np

from conftest import SESSION_TABLES, session_table
from painleve import separatrix_check

LEDGER = Path(__file__).resolve().parent / "data" / "records.json"


def manifest():
    """What the last bits of a record depend on besides the code: Python's
    and numpy's arithmetic and the C library's math functions."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": "-".join((platform.system(), platform.machine(), *platform.libc_ver())),
    }


def ledger_entries(tables):
    """The ledger's records and checks of ``tables``, a map from a name of
    ``conftest.SESSION_TABLES`` to that table's records."""
    records = {name: [[r.index, r.value.hex(), r.bracket_width.hex(), r.pole_count] for r in table]
               for name, table in tables.items()}
    checks = {}
    for name, table in tables.items():
        eq = SESSION_TABLES[name][0]
        if not eq.first_order:
            checks[name] = [[c.tag.value, c.pole_count]
                            for c in (separatrix_check(eq, r.mode, r.value) for r in table)]
    return {"records": records, "checks": checks}


def main():
    ledger = {"manifest": manifest(), **ledger_entries({name: session_table(name) for name in SESSION_TABLES})}
    text = json.dumps(ledger, indent=1)
    # one record or check per line, so that a moved record is a one-line diff
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(text + "\n")


if __name__ == "__main__":
    main()
