import csv
import json

import pytest

from painleve import IntegrationConfig
from painleve.cli import main
from painleve.eigensolver import EigenvalueRecord, PartialTableError, SearchMode

from conftest import P2_VALUE_REF, counted_probes


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
    assert IntegrationConfig(**manifest["config"]) == IntegrationConfig()


def test_trajectory_rejects_bad_direction(capsys):
    rc = main(["trajectory", "--eq", "p1", "--y0", "0", "--slope", "1.0",
               "--direction", "pos"])
    assert rc == 1
    assert "negative direction" in capsys.readouterr().err


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


def test_constants_closed_forms_only(capsys):
    rc = main(["constants"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    cf = payload["closed_forms"]
    assert cf["p1_slope"] == pytest.approx(2.09214674, abs=5e-9)
    assert cf["p1_value"] == pytest.approx(-1.0304844, abs=5e-8)
    assert cf["p2_slope"] == pytest.approx(1.8624128, abs=5e-8)
    assert cf["p2_value"] == pytest.approx(1.21581165, abs=1e-8)


def test_constants_rejects_empty_table(tmp_path, capsys):
    table = tmp_path / "bad.json"
    table.write_text(json.dumps({"equation": "p1", "mode": "slope", "records": []}))
    rc = main(["constants", "--table", str(table)])
    assert rc == 1


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
    # records and reports a partial table
    counted_probes(monkeypatch, fail_at=40)
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
    # and the config must still read back as the one the run used
    monkeypatch.setattr("painleve.cli.eigen_table", lambda *a, **kw: [])
    runs = {
        "trajectory": (["--eq", "p1", "--y0", "0", "--slope", "2.0", "--horizon", "-2"],
                       IntegrationConfig(t_horizon=-2.0)),
        "eigen": (["--eq", "p1", "--mode", "slope", "--n", "1", "--format", "csv"],
                  IntegrationConfig()),
    }
    for command, (flags, cfg) in runs.items():
        out = tmp_path / f"{command}.csv"
        main([command, *flags, "--out", str(out)])
        line = out.read_text().splitlines()[0]
        manifest = json.loads(line.split("# manifest: ", 1)[1], parse_constant=_reject_constant)
        assert IntegrationConfig(**manifest["config"]) == cfg
