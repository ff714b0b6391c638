import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_runs.py"
_spec = importlib.util.spec_from_file_location("diff_runs", SCRIPT)
diff_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_runs)


def _write_run(root: Path, name: str, table: str, metrics: dict):
    run = root / name
    run.mkdir(parents=True)
    (run / "series.csv").write_bytes(table.encode())
    (run / "summary.json").write_text(json.dumps({"status": "ok", "metrics": metrics}))


def _main(monkeypatch, a, b) -> int:
    monkeypatch.setattr(sys, "argv", ["diff_runs.py", str(a), str(b)])
    return diff_runs.main()


TABLE = "t,u\r\n0,1\r\n0.5,-2\r\n1,4\r\n"
METRICS = {"peak": 0.5, "pair": [1.0, -2.0], "count": 3, "note": None}


def test_identical_roots_exit_zero(tmp_path, monkeypatch, capsys):
    for side in "ab":
        _write_run(tmp_path / side, "run", TABLE, METRICS)
    assert _main(monkeypatch, tmp_path / "a", tmp_path / "b") == 0
    assert capsys.readouterr().out == ""


def test_rounding_level_differences_are_quantified(tmp_path, monkeypatch, capsys):
    _write_run(tmp_path / "a", "run", TABLE, METRICS)
    _write_run(
        tmp_path / "b",
        "run",
        "t,u\r\n0,1\r\n0.5,-2.0000000000000004\r\n1,4\r\n",
        {"peak": 0.5000000000000001, "pair": [1.0, -2.0000000000000004], "count": 4,
         "note": 1.0},
    )
    assert _main(monkeypatch, tmp_path / "a", tmp_path / "b") == 1
    out = capsys.readouterr().out.splitlines()
    # 4.4e-16 off in a column whose largest magnitude is 4
    assert out[0] == (
        "run/series.csv: bytes differ; rows 3 and 3; relative difference per "
        "column: t 0, u 1.1e-16"
    )
    assert "metric count: 3 != 4 (relative difference 0.33)" in out[1]
    assert out[2] == "run/summary.json: metric note: None != 1.0"
    assert "(relative difference 2.2e-16)" in out[3] and "pair" in out[3]
    assert "(relative difference 2.2e-16)" in out[4] and "peak" in out[4]
    assert len(out) == 5


def test_row_counts_and_missing_files_are_reported(tmp_path, monkeypatch, capsys):
    _write_run(tmp_path / "a", "run", TABLE, METRICS)
    _write_run(tmp_path / "b", "run", TABLE + "2,8\r\n", METRICS)
    (tmp_path / "a" / "run" / "extra.csv").write_text("t\r\n0\r\n")
    assert _main(monkeypatch, tmp_path / "a", tmp_path / "b") == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"run/extra.csv: only under {tmp_path / 'a'}",
        "run/series.csv: bytes differ; rows 3 and 4; columns not compared",
    ]


def test_relative_difference():
    rd = diff_runs.relative_difference
    assert rd([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rd([float("nan"), 2.0], [float("nan"), 2.0]) == 0.0
    assert rd([0.0, 4.0], [1e-3, 4.0]) == pytest.approx(2.5e-4)
    assert rd(0.0, 1e-17) == math.inf
