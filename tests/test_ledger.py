"""The session tables, the single-bracket end games and the benchmark's
``eigen`` ops against the committed record ledger,
``tests/data/records.json`` (see ``regen_records.py``)."""

import json

from conftest import SESSION_TABLES
from regen_records import LEDGER, eigen_entries, end_game_entries, ledger_entries, manifest

# Off the ledger's platform the last bits of a record may differ, so there a
# value or width may move by this share of the ledger's bracket width.
OFF_PLATFORM_SHARE = 0.1


def _moved(name, old, new, share):
    """Lines naming each record of table ``name`` that moved from the
    ledger's ``old`` to ``new`` by more than ``share`` of its bracket width."""
    lines = []
    if len(old) != len(new):
        lines.append(f"{name}: {len(new)} records, ledger {len(old)}")
    for (n, v0, w0, p0), (m, v1, w1, p1) in zip(old, new):
        w = float.fromhex(w0)
        dv = (float.fromhex(v1) - float.fromhex(v0)) / w
        dw = (float.fromhex(w1) - w) / w
        if m != n or p1 != p0 or abs(dv) > share or abs(dw) > share:
            lines.append(f"{name} n = {n}: value {dv:+.3g} w, width {dw:+.3g} w, index {m}, poles {p0} -> {p1}")
    return lines


def _ledger():
    """The ledger, the share of a bracket width by which a record may move
    from it here, and a line that says which."""
    ledger = json.loads(LEDGER.read_text())
    here = manifest()
    share = 0.0 if ledger["manifest"] == here else OFF_PLATFORM_SHARE
    how = ("exact: the ledger's platform" if share == 0.0
           else f"within {share} w: ledger from {ledger['manifest']}, run on {here}")
    print(f"\nledger comparison {how}")
    return ledger, share, how


def test_session_tables_match_the_ledger(request):
    ledger, share, how = _ledger()
    now = ledger_entries({name: request.getfixturevalue(f"{name}_table") for name in SESSION_TABLES})
    assert now["records"].keys() == ledger["records"].keys() and now["checks"].keys() == ledger["checks"].keys()
    moved = [line for name, old in ledger["records"].items() for line in _moved(name, old, now["records"][name], share)]
    moved += [f"{name} n = {n}: separatrix_check {tuple(new)}, ledger {tuple(old)}"
              for name, checks in ledger["checks"].items()
              for n, (old, new) in enumerate(zip(checks, now["checks"][name]), 1) if old != new]
    assert not moved, f"records moved from the ledger ({how}):\n" + "\n".join(moved)


def test_end_games_match_the_ledger():
    ledger, share, how = _ledger()
    now = end_game_entries()
    assert now.keys() == ledger["end_games"].keys()
    moved = [line for name, old in ledger["end_games"].items() for line in _moved(name, old, now[name], share)]
    assert not moved, f"end-game records moved from the ledger ({how}):\n" + "\n".join(moved)


def test_eigen_workload_matches_the_ledger():
    # the brackets are sums of scan steps, so they match exactly everywhere
    ledger, share, how = _ledger()
    now = eigen_entries()
    assert now.keys() == ledger["eigen"].keys()
    moved = [f"{name}: brackets {now[name]['brackets']}, ledger {old['brackets']}"
             for name, old in ledger["eigen"].items() if now[name]["brackets"] != old["brackets"]]
    moved += [line for name, old in ledger["eigen"].items()
              for line in _moved(name, old["records"], now[name]["records"], share)]
    assert not moved, f"eigen workload records moved from the ledger ({how}):\n" + "\n".join(moved)
