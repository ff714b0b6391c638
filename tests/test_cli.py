import json

import pytest

from rons.cli import main


def _write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("advdiff-exact", "euler-leapfrog", "nlse-focusing", "fit-demo"):
        assert name in out
    assert "default q0" in out


def test_run_success_and_outputs(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json", {"experiment": "advdiff-exact", "t_end": 1.0}
    )
    code = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "summary.json").exists()
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert "advdiff-exact: ok" in capsys.readouterr().out


def test_run_validation_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", {"experiment": "not-registered"})
    assert main(["run", cfg]) == 1
    assert "error" in capsys.readouterr().err
    cfg = _write_config(tmp_path / "cfg.json", {"experiment": "advdiff-exact", "t_end": None})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "t_end must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["run", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("config", [5, None, "experiment", ["experiment"]])
def test_config_that_is_not_an_object_is_a_validation_error(config, tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", config)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert main(["sweep", cfg, "nu", "0.1", "--out", str(tmp_path / "sweep")]) == 1
    err = capsys.readouterr().err
    assert err.count("error: a config must be a JSON object") == 2
    assert not (tmp_path / "out").exists() and not (tmp_path / "sweep").exists()


def test_run_numerical_abort(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        {
            "experiment": "euler-dipole",
            "q0": [0.0, 0.75, -3.0, 0.5, -1.0, 0.75, -3.0, -0.5],
            "t_end": 1.0,
            "resolution": 48,
        },
    )
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "failed"


def test_compare_command(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json", {"experiment": "advdiff-exact", "t_end": 1.0}
    )
    main(["run", cfg, "--out", str(tmp_path / "a")])
    capsys.readouterr()
    code = main(
        [
            "compare",
            str(tmp_path / "a" / "summary.json"),
            str(tmp_path / "a" / "summary.json"),
            "--out",
            str(tmp_path / "cmp.json"),
        ]
    )
    assert code == 0
    result = json.loads((tmp_path / "cmp.json").read_text())
    assert result["experiments"] == ["advdiff-exact", "advdiff-exact"]
    for gap in result["series_gaps"].values():
        assert gap["sup_gap"] == 0.0


def test_compare_validation_error(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")]) == 1


def test_sweep_command(tmp_path, capsys):
    template = _write_config(
        tmp_path / "tpl.json", {"experiment": "advdiff-exact", "t_end": 1.0}
    )
    code = main(
        ["sweep", template, "nu", "0.05", "0.2", "--out", str(tmp_path / "sweep")]
    )
    assert code == 0
    out_dirs = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert out_dirs == ["advdiff-exact-nu-0.05", "advdiff-exact-nu-0.2"]
    for d in out_dirs:
        summary = json.loads((tmp_path / "sweep" / d / "summary.json").read_text())
        assert summary["status"] == "ok"
    assert "ok" in capsys.readouterr().out


def test_sweep_workers_write_the_same_files(tmp_path, capsys):
    template = _write_config(
        tmp_path / "tpl.json", {"experiment": "advdiff-exact", "t_end": 0.5}
    )
    for workers in ("1", "2"):
        code = main(["sweep", template, "nu", "0.05", "0.2", "--workers", workers,
                     "--out", str(tmp_path / workers)])
        assert code == 0
    csvs = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*.csv"))
    assert len(csvs) == 2 * 4
    for rel in csvs:
        assert (tmp_path / "1" / rel).read_bytes() == (tmp_path / "2" / rel).read_bytes()


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    template = _write_config(
        tmp_path / "tpl.json", {"experiment": "advdiff-exact", "t_end": 1.0}
    )
    assert main(["sweep", template, "nonsense", "1", "2"]) == 1
    # a bad value fails the sweep before any of its runs starts
    out = tmp_path / "sweep"
    assert main(["sweep", template, "nu", "0.1", "-1", "--out", str(out)]) == 1
    assert main(["sweep", template, "resolution", "64", "64.5", "--out", str(out)]) == 1
    assert not out.exists()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_compare_zero_reference_or_null_metric_writes_null(tmp_path, capsys):
    paths = []
    for name, metrics in (
        ("a", {"rons_angular_velocity": 0.16, "rons_speed": 0.4, "rons_peak_amp": None}),
        ("b", {"euler_core_angular_velocity": 0.0, "euler_core_speed": 0.5,
               "dns_peak_amp": 0.4}),
    ):
        path = tmp_path / name / "summary.json"
        path.parent.mkdir()
        path.write_text(
            json.dumps({"experiment": "euler-pair", "series": {}, "metrics": metrics})
        )
        paths.append(str(path))
    code = main(["compare", *paths, "--out", str(tmp_path / "cmp.json")])
    assert code == 0
    result = _strict_json((tmp_path / "cmp.json").read_text())
    _strict_json(capsys.readouterr().out)
    gaps = result["metric_gaps"]
    assert gaps["rons_angular_velocity_vs_euler_core_angular_velocity"]["rel_gap"] is None
    assert gaps["rons_speed_vs_euler_core_speed"]["rel_gap"] == pytest.approx(0.2)
    assert gaps["rons_peak_amp_vs_dns_peak_amp"]["rel_gap"] is None
