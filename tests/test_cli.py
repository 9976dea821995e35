import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from painleve import IntegrationConfig
from painleve.cli import main
from painleve.eigensolver import EigenvalueRecord, PartialTableError, SearchMode

from conftest import P1_SLOPE_REF, P2_SLOPE_REF, P2_VALUE_REF, TOY_REF, counted_probes


def _read_csv(path):
    lines = path.read_text().splitlines()
    manifest = json.loads(lines[0].split("# manifest: ", 1)[1])
    rows = list(csv.DictReader(lines[1:]))
    return manifest, rows


def test_trajectory_critical_slope(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["trajectory", "--eq", "p1", "--y0", "0", "--slope", "1.851854034",
               "--direction", "neg", "--horizon", "-7", "--rel-tol", "1e-12",
               "--out", str(out)])
    assert rc == 0
    manifest, rows = _read_csv(out)
    assert manifest["pole_count"] == 0
    assert not any(r["pole_marker"] == "1" for r in rows)
    # terminal samples track the positive branch
    tail = [r for r in rows if r["y"] and float(r["t"]) < -6.4]
    assert tail
    for r in tail:
        assert float(r["y"]) == pytest.approx(float(r["branch_plus"]), rel=2e-3)


def test_trajectory_p2_positive(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["trajectory", "--eq", "p2", "--y0", "1.222873339", "--slope", "0",
               "--direction", "pos", "--horizon", "8", "--out", str(out)])
    assert rc == 0
    manifest, rows = _read_csv(out)
    assert manifest["pole_count"] == 1
    decay = [abs(float(r["y"])) for r in rows if r["y"] and float(r["t"]) > 6.0]
    assert min(decay) < 1e-3


def test_trajectory_rows_strictly_increase_in_t(tmp_path):
    # each pole's detour exit is written once: the sample rows of a
    # positive-direction run through six poles never repeat a time
    out = tmp_path / "t.csv"
    rc = main(["trajectory", "--eq", "p2", "--direction", "pos", "--y0", "2", "--horizon", "10",
               "--out", str(out)])
    assert rc == 0
    manifest, rows = _read_csv(out)
    assert manifest["pole_count"] == 6
    ts = [float(r["t"]) for r in rows if r["pole_marker"] == "0"]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_trajectory_truncated_run_exit_code(tmp_path, capsys):
    # the pole cap stops this run at its 201st pole: the artifact is still
    # written, the reason goes to stderr, and the exit code is 3
    out = tmp_path / "t.csv"
    rc = main(["trajectory", "--eq", "p2", "--direction", "pos", "--y0", "3", "--horizon", "400",
               "--out", str(out)])
    assert rc == 3
    manifest, rows = _read_csv(out)
    assert manifest["stopped_by"] == "pole-cap"
    assert manifest["pole_count"] == 201
    assert rows
    assert "stopped by pole-cap" in capsys.readouterr().err


def test_trajectory_toy(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["trajectory", "--eq", "toy", "--y0", "0.25", "--out", str(out)])
    assert rc == 0
    manifest, rows = _read_csv(out)
    assert manifest["pole_count"] == 0
    assert manifest["maxima_count"] >= 1
    ys = [float(r["y"]) for r in rows if r["y"]]
    assert abs(ys[-1]) < 0.1  # late-time decay


def test_trajectory_json_format(tmp_path):
    out = tmp_path / "t.json"
    rc = main(["trajectory", "--eq", "p1", "--y0", "0", "--slope", "2.0",
               "--direction", "neg", "--horizon", "-5", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "t"
    assert payload["manifest"]["pole_count"] >= 1
    marks = [r for r in payload["rows"] if r[4] == 1]
    assert len(marks) == payload["manifest"]["pole_count"]


def test_eigen_csv_format(tmp_path, monkeypatch):
    def fake_table(*a, **kw):
        return [EigenvalueRecord(1, 1.8518540337, 1e-9, 0, SearchMode.coerce("slope"))]

    monkeypatch.setattr("painleve.cli.eigen_table", fake_table)
    out = tmp_path / "t.csv"
    rc = main(["eigen", "--eq", "p1", "--mode", "slope", "--n", "1",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "index,value,bracket_width,pole_count,mode"
    assert lines[2].startswith("1,1.8518540337,")
    manifest = json.loads(lines[0].split("# manifest: ", 1)[1])
    # the search takes only a relative tolerance; the manifest records it
    assert manifest["rel_tol"] == 1e-10
    assert "config" not in manifest


def test_eigen_rel_tol_sets_the_first_matched_pass(tmp_path, monkeypatch):
    # --rel-tol is the search's rel_tol: the first matched pass runs at it,
    # with no integration setting but its horizon, the matching time
    calls = counted_probes(monkeypatch)
    out = tmp_path / "eigs.json"
    rc = main(["eigen", "--eq", "toy", "--n", "1", "--tol", "1e-6", "--rel-tol", "1e-9",
               "--out", str(out)])
    assert rc == 0
    first_pass = [args[3] for args in calls if args[3].rel_tol == 1e-9]
    assert first_pass
    assert all(cfg == IntegrationConfig(1e-9, t_horizon=cfg.t_horizon) for cfg in first_pass)
    assert json.loads(out.read_text())["manifest"]["rel_tol"] == 1e-9


def test_trajectory_manifest_config_holds_three_settings(tmp_path):
    # abs_tol follows rel_tol inside IntegrationConfig, so the snapshot holds
    # the four settings a config has and nothing else
    out = tmp_path / "t.csv"
    rc = main(["trajectory", "--eq", "p1", "--slope", "2.0", "--horizon", "-2", "--rel-tol", "1e-12",
               "--out", str(out)])
    assert rc == 0
    config = _read_csv(out)[0]["config"]
    assert set(config) == {"rel_tol", "t_horizon", "max_poles"}
    assert config["rel_tol"] == 1e-12


def test_trajectory_rejects_bad_direction(capsys):
    rc = main(["trajectory", "--eq", "p1", "--y0", "0", "--slope", "1.0",
               "--direction", "pos"])
    assert rc == 1
    assert "negative direction" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--eq", "p2", "--direction", "pos", "--y0", "1.0", "--horizon", "nan"],
    ["--eq", "p1", "--slope", "2.0", "--horizon", "-2", "--rel-tol", "nan"],
], ids=["horizon", "rel-tol"])
def test_trajectory_rejects_non_finite_settings(tmp_path, capsys, argv):
    # a NaN horizon would send P-II's positive run toward negative t and
    # never end a toy run, so the config refuses it before any step
    out = tmp_path / "traj.csv"
    assert main(["trajectory", *argv, "--out", str(out)]) == 1
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--eq", "p1", "--slope", "nan"],
    ["--eq", "p2", "--y0", "nan", "--direction", "pos"],
    ["--eq", "toy", "--y0", "inf"],
], ids=["p1-slope", "p2-y0", "toy-y0"])
def test_trajectory_rejects_non_finite_initial_data(tmp_path, capsys, argv):
    # unchecked, these would exit 0 with empty y columns, or die inside classify
    out = tmp_path / "traj.csv"
    assert main(["trajectory", *argv, "--out", str(out)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_python_m_painleve_runs_the_cli_uninstalled():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-m", "painleve", "--help"], env=env, cwd=src.parent,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: painleve")
    assert "trajectory" in run.stdout and "eigen" in run.stdout


def test_eigen_rejects_non_finite_tol(tmp_path, capsys, monkeypatch):
    calls = counted_probes(monkeypatch)
    out = tmp_path / "eig.csv"
    assert main(["eigen", "--eq", "p1", "--mode", "slope", "--n", "2", "--tol", "nan",
                 "--out", str(out)]) == 1
    assert "tol = nan must be finite" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_eigen_rejects_a_bad_record_count(tmp_path, capsys):
    out = tmp_path / "eig.json"
    assert main(["eigen", "--eq", "p1", "--n", "0", "--out", str(out)]) == 1
    assert "n_max = 0" in capsys.readouterr().err
    assert not out.exists()


def test_eigen_roundtrip_constants(tmp_path):
    table = tmp_path / "eigs.json"
    rc = main(["eigen", "--eq", "p2", "--mode", "value", "--n", "5",
               "--tol", "1e-8", "--out", str(table)])
    assert rc == 0
    payload = json.loads(table.read_text())
    assert payload["complete"] is True
    recs = payload["records"]
    assert [r["index"] for r in recs] == [1, 2, 3, 4, 5]
    assert recs[0]["value"] == pytest.approx(P2_VALUE_REF[1], abs=1e-6)
    assert recs[3]["value"] == pytest.approx(P2_VALUE_REF[4], abs=1e-6)
    assert all(r["bracket_width"] <= 1e-8 for r in recs)
    assert [r["pole_count"] for r in recs] == [1, 2, 3, 4, 5]

    out = tmp_path / "const.json"
    rc = main(["constants", "--table", str(table), "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    ex = result["extrapolation"]
    assert ex["closed_form"] == pytest.approx(1.21581166, abs=1e-7)
    assert abs(ex["deviation"]) < 5e-3  # five terms only; order capped at 4
    assert ex["order"] == 4


def test_constants_short_split_table_reports(tmp_path, capsys):
    table = tmp_path / "eigs.json"
    table.write_text(json.dumps({
        "equation": "p2", "mode": "slope",
        "records": [{"index": 1, "value": 0.5950825526},
                    {"index": 2, "value": 1.528605106}],
    }))
    rc = main(["constants", "--table", str(table)])
    assert rc == 1
    assert "too short" in capsys.readouterr().err


def test_constants_split_table_reports(tmp_path):
    # the second equation's slopes alternate, so each parity class gets its
    # own estimate of the one closed form
    table = tmp_path / "eigs.json"
    table.write_text(json.dumps({
        "equation": "p2", "mode": "slope",
        "records": [{"index": n, "value": P2_SLOPE_REF[n]} for n in range(1, 6)],
    }))
    out = tmp_path / "const.json"
    rc = main(["constants", "--table", str(table), "--out", str(out)])
    assert rc == 0
    ex = json.loads(out.read_text())["extrapolation"]
    assert set(ex) == {"exponent", "order", "closed_form", "even", "odd"}
    assert ex["order"] == 1  # five terms hold one order per parity class
    assert ex["exponent"] == pytest.approx(2.0 / 3.0)
    assert ex["closed_form"] == pytest.approx(1.8624128, abs=5e-8)
    for side in (ex["even"], ex["odd"]):
        assert set(side) == {"estimate", "stability", "deviation"}
        assert side["deviation"] == side["estimate"] - ex["closed_form"]
        assert abs(side["deviation"]) < 2e-2


def test_constants_closed_forms_only(capsys):
    rc = main(["constants"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    cf = payload["closed_forms"]
    assert cf["p1_slope"] == pytest.approx(2.09214674, abs=5e-9)
    assert cf["p1_value"] == pytest.approx(-1.0304844, abs=5e-8)
    assert cf["p2_slope"] == pytest.approx(1.8624128, abs=5e-8)
    assert cf["p2_value"] == pytest.approx(1.21581165, abs=1e-8)


def test_constants_rejects_table_with_index_gaps(tmp_path, capsys):
    # Richardson extrapolation reads the k-th value as n = k, so a table
    # holding indices 2-4 of the first equation's slopes must not pass
    table = tmp_path / "eigs.json"
    table.write_text(json.dumps({
        "equation": "p1", "mode": "slope",
        "records": [{"index": n, "value": P1_SLOPE_REF[n]} for n in (2, 3, 4)],
    }))
    rc = main(["constants", "--table", str(table)])
    assert rc == 1
    assert "indices" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [{"index": "2"}, {"value": "a"}, {"index": True}, {"value": False}, {"value": float("nan")},
     {"value": 10**400}],
    ids=["index-str", "value-str", "index-bool", "value-bool", "value-nan", "value-past-float"],
)
def test_constants_rejects_unreadable_records(tmp_path, capsys, bad):
    # a record whose index is not an int, or whose value is not a real
    # number, is a read error with exit 1, not a traceback
    records = [{"index": n, "value": P1_SLOPE_REF[n]} for n in (1, 2, 3)]
    records[1].update(bad)
    table = tmp_path / "eigs.json"
    table.write_text(json.dumps({"equation": "p1", "mode": "slope", "records": records}))
    rc = main(["constants", "--table", str(table)])
    assert rc == 1
    assert "cannot read table" in capsys.readouterr().err


@pytest.mark.parametrize("top", [[1, 2], "records", 3.5, None], ids=["list", "str", "number", "null"])
def test_constants_rejects_a_table_that_is_not_an_object(tmp_path, capsys, top):
    # a JSON file whose top level is not an object is a read error with
    # exit 1, not a traceback
    table = tmp_path / "bad.json"
    table.write_text(json.dumps(top))
    rc = main(["constants", "--table", str(table)])
    assert rc == 1
    assert "cannot read table: its top level is" in capsys.readouterr().err


def test_constants_rejects_empty_table(tmp_path, capsys):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps({"equation": "p1", "mode": "slope", "records": []}))
    rc = main(["constants", "--table", str(table)])
    assert rc == 1


def test_constants_rejects_a_table_without_an_extraction_rule(tmp_path, capsys):
    # the toy model has no growth constant to extract, and an unknown
    # equation or a mode its equation lacks has no rule either: exit 1, named
    table = tmp_path / "toy.json"
    for eq, mode in [("toy", "toy"), ("p3", "slope"), ("p1", "toy")]:
        table.write_text(json.dumps({"equation": eq, "mode": mode,
                                     "records": [{"index": n, "value": TOY_REF[n]} for n in (1, 2, 3)]}))
        rc = main(["constants", "--table", str(table)])
        assert rc == 1
        assert f"no extraction rule for equation/mode ('{eq}', '{mode}')" in capsys.readouterr().err


def test_constants_rejects_malformed_table(tmp_path):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps({"equation": "p1", "mode": "slope",
                                 "records": [{"index": 1}]}))
    rc = main(["constants", "--table", str(table)])
    assert rc == 1


def test_eigen_partial_table_exit_code(tmp_path, monkeypatch):
    def fake_table(*a, **kw):
        raise PartialTableError(
            "stub", [EigenvalueRecord(1, 1.85, 1e-9, 0, SearchMode.coerce("slope"))], 2
        )

    monkeypatch.setattr("painleve.cli.eigen_table", fake_table)
    out = tmp_path / "eigs.json"
    rc = main(["eigen", "--eq", "p1", "--mode", "slope", "--n", "3", "--out", str(out)])
    assert rc == 2
    payload = json.loads(out.read_text())
    assert payload["complete"] is False
    assert len(payload["records"]) == 1


def test_eigen_probe_failure_exit_code(tmp_path, monkeypatch):
    # an integration failure in the middle of a table keeps the finished
    # records and reports a partial table; the second eigenvalue's end game
    # runs probes 20-34 of 51
    counted_probes(monkeypatch, fail_at=30)
    out = tmp_path / "eigs.json"
    rc = main(["eigen", "--eq", "toy", "--n", "3", "--out", str(out)])
    assert rc == 2
    payload = json.loads(out.read_text())
    assert payload["complete"] is False
    assert payload["mode"] == "toy"
    assert [r["index"] for r in payload["records"]] == [1]


def test_manifest_determinism(tmp_path, monkeypatch):
    # identical flag strings give identical bytes apart from the wall time
    texts = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        main(["trajectory", "--eq", "p1", "--y0", "0", "--slope", "2.0",
              "--direction", "neg", "--horizon", "-5", "--out", "t.csv"])
        texts.append((d / "t.csv").read_text())
    ma, rows_a = _read_csv(tmp_path / "a" / "t.csv")
    mb, rows_b = _read_csv(tmp_path / "b" / "t.csv")
    wa, wb = ma.pop("wall_time_s"), mb.pop("wall_time_s")
    assert ma == mb
    assert rows_a == rows_b
    assert texts[0].replace(f'"wall_time_s": {wa}', "") == texts[1].replace(f'"wall_time_s": {wb}', "")
    # the config snapshot reads back as the config the run used
    assert IntegrationConfig(**ma["config"]) == IntegrationConfig(t_horizon=-5.0)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_manifest_lines_are_strict_json(tmp_path, monkeypatch):
    # the manifest must parse under a strict JSON parser (no Infinity/NaN)
    # and must still read back as the settings the run used
    monkeypatch.setattr("painleve.cli.eigen_table", lambda *a, **kw: [])
    runs = {
        "trajectory": ["--eq", "p1", "--y0", "0", "--slope", "2.0", "--horizon", "-2"],
        "eigen": ["--eq", "p1", "--mode", "slope", "--n", "1", "--format", "csv"],
    }
    manifests = {}
    for command, flags in runs.items():
        out = tmp_path / f"{command}.csv"
        main([command, *flags, "--out", str(out)])
        line = out.read_text().splitlines()[0]
        manifests[command] = json.loads(line.split("# manifest: ", 1)[1], parse_constant=_reject_constant)
    assert IntegrationConfig(**manifests["trajectory"]["config"]) == IntegrationConfig(t_horizon=-2.0)
    assert manifests["eigen"]["rel_tol"] == 1e-10
