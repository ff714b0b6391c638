import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def golden_metrics(monkeypatch):
    # the script imports its neighbour diff_runs, as when run from scripts/
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("golden_metrics")


def test_changes_are_printed_before_the_snapshot_is_written(
    golden_metrics, tmp_path, monkeypatch, capsys
):
    golden = tmp_path / "golden_metrics.json"
    golden.write_text(json.dumps({
        "demo": {"peak": 0.5, "pair": [1.0, -2.0], "count": 3, "note": None, "gone": 1.0},
        "dropped": {"rate": 2.0},
    }))
    new = {
        "demo": {"peak": 0.5000000000000001, "pair": [1.0, -2.0], "count": 4, "note": 1.0},
        "fresh": {"rate": 2.0},
    }
    monkeypatch.setattr(golden_metrics, "GOLDEN", golden)
    monkeypatch.setattr(golden_metrics, "EXPERIMENTS", dict.fromkeys(new))
    monkeypatch.setattr(
        golden_metrics, "run",
        lambda config, out_dir: SimpleNamespace(status="ok", metrics=new[config["experiment"]]),
    )
    golden_metrics.main()
    out = capsys.readouterr().out.splitlines()
    assert out[2:-1] == [
        "demo: metric count: 3 != 4 (relative difference 0.33)",
        "demo: metric gone: 1.0 != '<absent>'",
        "demo: metric note: None != 1.0",
        "demo: metric peak: 0.5 != 0.5000000000000001 (relative difference 2.2e-16)",
        "dropped: metric rate: 2.0 != '<absent>'",
        "fresh: metric rate: '<absent>' != 2.0",
        "6 metric(s) changed",
    ]
    assert json.loads(golden.read_text()) == new

