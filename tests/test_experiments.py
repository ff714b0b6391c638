import csv
import json

import numpy as np
import pytest

from rons.ansatz import VortexStreamFunction
from rons.experiments import (
    EXPERIMENTS,
    _write_csv,
    compare,
    list_experiments,
    resolve_config,
    run,
    validate_summary,
)
from rons.hilbert import box_rule
from rons.models import vorticity
from rons.oracles import core_centroid_velocities

EXPECTED_NAMES = {
    "advdiff-exact",
    "nlse-focusing",
    "nlse-defocusing",
    "nlse-unconstrained",
    "euler-dipole",
    "euler-pair",
    "euler-leapfrog",
    "galerkin-equivalence",
    "appendixA-instability",
    "fit-demo",
}


def test_registry_names():
    assert set(list_experiments()) == EXPECTED_NAMES
    assert len(EXPERIMENTS) == 10


def test_default_initial_parameters_registered():
    assert EXPERIMENTS["nlse-defocusing"].defaults["q0"] == [0.2, 5.0, 0.0, 0.0]
    assert EXPERIMENTS["nlse-focusing"].defaults["q0"] == [0.2, 20.0, -0.05, 0.0]
    assert EXPERIMENTS["euler-dipole"].defaults["q0"] == [
        1.0, 0.75, -3.0, 0.5, -1.0, 0.75, -3.0, -0.5,
    ]
    leap = EXPERIMENTS["euler-leapfrog"].defaults["q0"]
    amps, lens = leap[0::4], leap[1::4]
    centers = list(zip(leap[2::4], leap[3::4]))
    assert amps == [1.0, -1.0, 1.0, -1.0]
    assert lens == [0.3] * 4
    assert set(centers) == {(0.5, 0.5), (0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)}


def test_resolve_config_validation():
    with pytest.raises(ValueError):
        resolve_config({})
    with pytest.raises(ValueError):
        resolve_config({"experiment": "no-such-thing"})
    with pytest.raises(ValueError):
        resolve_config({"experiment": "advdiff-exact", "bogus_key": 1})
    with pytest.raises(ValueError):
        resolve_config({"experiment": "advdiff-exact", "t_end": -2.0})
    with pytest.raises(ValueError):
        resolve_config({"experiment": "advdiff-exact", "nu": -0.1})
    with pytest.raises(ValueError):
        resolve_config({"experiment": "advdiff-exact", "q0": [1.0, np.inf, 0.0]})
    resolved = resolve_config({"experiment": "advdiff-exact", "t_end": 2.0})
    assert resolved["t_end"] == 2.0
    assert resolved["c"] == 1.0  # default filled in


@pytest.mark.parametrize("config", [
    {"experiment": "advdiff-exact", "stride": 0},
    {"experiment": "advdiff-exact", "scheme": "euler"},
    {"experiment": "advdiff-exact", "scheme": "rk4"},
    {"experiment": "advdiff-exact", "dt": -0.5},
    {"experiment": "advdiff-exact", "dt": 0},
    {"experiment": "advdiff-exact", "snapshots": 0},
    {"experiment": "nlse-focusing", "dns_dt": 0},
    # a reference that would stop short of t_end
    {"experiment": "nlse-focusing", "t_end": 1.0, "dns_dt": 0.3},
    {"experiment": "nlse-focusing", "t_end": 1.0, "dns_dt": 0.4},
    {"experiment": "appendixA-instability", "lambdas": []},
    {"experiment": "appendixA-instability", "lambdas": [1.0, -0.5]},
    # values of the wrong type, length or range
    {"experiment": "advdiff-exact", "t_end": None},
    {"experiment": "advdiff-exact", "t_end": "2"},
    {"experiment": "advdiff-exact", "q0": [1.0, 1.0]},
    {"experiment": "euler-pair", "q0": [1.0, 1.0, -1.0, 0.0, 1.0, 1.0, 1.0]},
    {"experiment": "nlse-focusing", "dns_modes": 500},
    {"experiment": "nlse-focusing", "dns_modes": 8},
    {"experiment": "nlse-focusing", "dns_length": 0.0},
    {"experiment": "fit-demo", "half_width": -1},
    {"experiment": "advdiff-exact", "snapshots": 2.5},
    {"experiment": "galerkin-equivalence", "n_states": 2.5},
    {"experiment": "galerkin-equivalence", "n_modes": 0},
    {"experiment": "galerkin-equivalence", "seed": -1},
    # modes the equispaced rule cannot keep orthonormal
    {"experiment": "galerkin-equivalence", "n_modes": 64, "n_states": 2},
    {"experiment": "galerkin-equivalence", "n_modes": 63},
    {"experiment": "fit-demo", "n_starts": 0},
    {"experiment": "advdiff-exact", "resolution": 100.7},
    {"experiment": "advdiff-exact", "rtol": True},
    {"experiment": "advdiff-exact", "rtol": float("nan")},
    {"experiment": "advdiff-exact", "t_end": np.float32("inf")},
    {"experiment": "nlse-unconstrained", "constrained": "no"},
    {"experiment": "euler-dipole", "window_pad": -1},
    {"experiment": "appendixA-instability", "t_horizon_over_lambda": 0},
    # keys no runner of the experiment reads
    {"experiment": "galerkin-equivalence", "scheme": "rk45"},
    {"experiment": "appendixA-instability", "dt": 0.1},
    {"experiment": "advdiff-exact", "constrained": True},
    {"experiment": "euler-pair", "seed": 1},
], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items() if k != "experiment"))
def test_config_errors_raise_before_anything_is_written(config, tmp_path):
    with pytest.raises(ValueError):
        run(config, out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_numpy_scalars_are_written_as_json_numbers(tmp_path):
    config = {
        "experiment": "advdiff-exact",
        "resolution": np.int64(64),
        "t_end": np.float32(0.5),
        "q0": [np.int64(1), 1.0, np.float64(0.0)],
    }
    record = run(config, out_dir=tmp_path)
    assert record.status == "ok"
    written = json.loads((tmp_path / "config.json").read_text())
    assert written == record.config
    assert type(written["resolution"]) is int and written["resolution"] == 64
    assert type(written["t_end"]) is float and written["t_end"] == 0.5
    assert written["q0"] == [1.0, 1.0, 0.0]


def test_galerkin_accepts_the_most_modes_the_rule_resolves(tmp_path):
    # 62 modes stop at wavenumber 31, which 64 nodes resolve; 63 reach 32
    record = run(
        {"experiment": "galerkin-equivalence", "n_modes": 62, "n_states": 2},
        out_dir=tmp_path,
    )
    assert record.status == "ok" and record.metrics["max_rhs_deviation"] < 1e-10


def test_empty_vortex_cores_record_null_core_velocities(tmp_path):
    # on a 2 x 2 window no node lies inside either positive core; the
    # oracle must not divide 0 by 0 (RuntimeWarnings are errors in the suite)
    record = run({"experiment": "euler-pair", "t_end": 0.2, "resolution": 2}, out_dir=tmp_path)
    assert record.status == "ok"
    summary = json.loads(record.summary_path.read_text())
    assert summary["metrics"]["core_circulations"] == [0.0, 0.0]
    assert summary["metrics"]["euler_core_angular_velocity"] is None


def test_short_pair_run_records_no_rate_variation(tmp_path):
    # thirds of fewer than three steps fit no rate; polyfit must not be asked
    record = run({"experiment": "euler-pair", "t_end": 0.05, "resolution": 48}, out_dir=tmp_path)
    assert record.status == "ok"
    summary = json.loads(record.summary_path.read_text())
    assert summary["metrics"]["angular_velocity_rel_variation"] is None
    assert np.isfinite(summary["metrics"]["rons_angular_velocity"])


# short runs that still reach every config read of each runner
SHORT = {
    "advdiff-exact": {"t_end": 0.1},
    "nlse-focusing": {"t_end": 0.5},
    "nlse-defocusing": {"t_end": 0.5},
    "nlse-unconstrained": {"t_end": 0.5},
    "euler-dipole": {"t_end": 0.05, "resolution": 48},
    # long enough for the pair's rate fits over thirds of the run
    "euler-pair": {"t_end": 0.5, "resolution": 48},
    "euler-leapfrog": {"t_end": 0.05, "resolution": 48},
    "galerkin-equivalence": {"n_states": 2},
    "appendixA-instability": {"t_horizon_over_lambda": 1.0},
    "fit-demo": {},
}


class _ReadRecorder(dict):
    """A config that records which keys were read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("name", sorted(SHORT))
def test_every_declared_key_is_read(name, tmp_path):
    spec = EXPERIMENTS[name]
    config = _ReadRecorder(resolve_config({"experiment": name, **SHORT[name]}))
    spec.runner(config, tmp_path, {}, {})
    # `run` reads out_dir before it calls the runner
    assert set(spec.defaults) - {"out_dir"} - config.read == set()


def test_stride_keeps_the_last_step(tmp_path):
    record = run(
        {"experiment": "advdiff-exact", "stride": 1000, "t_end": 2.0}, out_dir=tmp_path
    )
    assert record.status == "ok"
    _, data = _read(tmp_path / "trajectory.csv")
    assert data[0, 0] == 0.0 and data[-1, 0] == 2.0


@pytest.fixture(scope="module")
def quick_advdiff(tmp_path_factory):
    out = tmp_path_factory.mktemp("advdiff")
    return run({"experiment": "advdiff-exact", "t_end": 2.0}, out_dir=out)


def _reference_csv(path, header, rows):
    """csv.writer over each value formatted on its own."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(x):.17g}" for x in row])


@pytest.mark.parametrize("rows", [0, 1, 1024, 2500])
def test_csv_writer_matches_savetxt(rows, tmp_path):
    # blocks of rows, the last one partial, give np.savetxt's bytes
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    every_fifth = table.reshape(-1)[::5]        # a view into table
    every_fifth[:] = np.resize([np.nan, -0.0, np.inf, -np.inf, 5e-324, 0.1], every_fifth.size)
    header = ["t", "a", "b"]
    _write_csv(tmp_path / "blocks.csv", header, table)
    with open(tmp_path / "savetxt.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline="\r\n")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_csv_writer_matches_per_value_formatting(tmp_path):
    # the array writer writes the bytes of csv.writer over per-value "%.17g"
    header = ["t", "a,b", 'say "x"', "y"]
    values = [
        [0, -7, 3, 2**60],
        [np.int64(3), 1.5, -1, np.float64(-1.0)],
        [np.nan, np.inf, -np.inf, -0.0],
        [5e-324, -2.5e-310, 1e-320, 2.2250738585072014e-308],
        [0.1, 1 / 3, 1e16, 1.7976931348623157e308],
    ]
    for name, rows in (("values", values), ("empty", [])):
        _write_csv(tmp_path / f"{name}.csv", header, np.array(rows, dtype=float))
        _reference_csv(tmp_path / f"{name}-reference.csv", header, rows)
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}-reference.csv").read_bytes()


def test_run_writes_expected_files(quick_advdiff):
    record = quick_advdiff
    assert record.status == "ok"
    for rel in record.files.values():
        assert (record.out_dir / rel).exists()
    for rel in record.series.values():
        assert (record.out_dir / rel).exists()
    with open(record.summary_path) as fh:
        summary = json.load(fh)
    validate_summary(summary)
    assert summary["experiment"] == "advdiff-exact"
    assert summary["status"] == "ok"


def test_trajectory_csv_schema(quick_advdiff):
    record = quick_advdiff
    with open(record.out_dir / "trajectory.csv") as fh:
        header = fh.readline().strip().split(",")
        first = fh.readline().strip().split(",")
    assert header == ["t", "q1", "q2", "q3", "J", "J_raw", "I1", "I2", "cond_M", "cond_C"]
    assert len(first) == len(header)
    assert float(first[0]) == 0.0
    assert float(first[2]) == 1.0  # L0


def test_deterministic_outputs(tmp_path):
    config = {"experiment": "advdiff-exact", "t_end": 1.0}
    a = run(config, out_dir=tmp_path / "a")
    b = run(config, out_dir=tmp_path / "b")
    for rel in ("trajectory.csv", "fields.csv", "series_rons_amplitude.csv"):
        assert (a.out_dir / rel).read_bytes() == (b.out_dir / rel).read_bytes()


def test_compare_identical_records_zero_gaps(quick_advdiff):
    record = quick_advdiff
    result = compare(record.summary_path, record.summary_path)
    for gap in result["series_gaps"].values():
        assert gap["sup_gap"] == 0.0
    assert result["model_vs_reference"]["sup_gap"] <= 1e-6


def test_compare_mismatched_experiments(tmp_path, quick_advdiff):
    other = run({"experiment": "fit-demo"}, out_dir=tmp_path / "fit")
    with pytest.raises(ValueError):
        compare(quick_advdiff.summary_path, other.summary_path)


def test_failed_run_reports_reason(tmp_path):
    # zero amplitude sits outside the admissible set: numerical abort
    record = run(
        {"experiment": "euler-dipole", "q0": [0.0, 0.75, -3.0, 0.5, -1.0, 0.75, -3.0, -0.5],
         "t_end": 1.0, "resolution": 48},
        out_dir=tmp_path / "bad",
    )
    assert record.status == "failed"
    assert record.abort_reason
    with open(record.summary_path) as fh:
        summary = json.load(fh)
    validate_summary(summary)
    assert summary["status"] == "failed"


def test_euler_dipole_quick_run(tmp_path):
    record = run(
        {"experiment": "euler-dipole", "t_end": 1.0, "resolution": 64},
        out_dir=tmp_path / "dipole",
    )
    assert record.status == "ok"
    assert record.metrics["rons_speed"] == pytest.approx(0.382127, abs=2e-4)
    assert record.metrics["max_rel_drift_A"] <= 1e-10
    # shielded vortices: net circulation integrates to zero
    assert all(abs(g) < 1e-10 for g in record.metrics["net_circulations"])
    # coarse-grid quadrature of the sign-restricted core is only %-accurate
    assert record.metrics["core_circulations"][0] == pytest.approx(4 * np.pi / np.e, rel=5e-3)
    _assert_reference_moves(record)


def _assert_reference_moves(record):
    """The series `compare` takes as the reference is written and moves:
    a point-vortex reference with the shielded vortices' zero net
    circulations would stand still."""
    with open(record.summary_path) as fh:
        reference = json.load(fh)["series_roles"]["reference"]
    header, data = _read(record.out_dir / record.series[reference])
    assert header[:3] == ["t", "x1", "y1"]
    assert np.ptp(data[:, 1]) > 1e-3


@pytest.mark.parametrize("name", ["euler-pair", "euler-leapfrog"])
def test_euler_reference_series_moves(name, tmp_path):
    record = run({"experiment": name, "t_end": 0.5, "resolution": 64}, out_dir=tmp_path / name)
    assert record.status == "ok"
    _assert_reference_moves(record)


def test_nlse_defocusing_quick_run(tmp_path):
    record = run(
        {"experiment": "nlse-defocusing", "t_end": 5.0},
        out_dir=tmp_path / "nlse",
    )
    assert record.status == "ok"
    assert record.metrics["drift_I1"] <= 1e-7
    assert record.metrics["max_tangency"] <= 1e-9
    assert (record.out_dir / record.series["dns_center"]).exists()
    header, data = _read(record.out_dir / record.series["rons_center"])
    assert header == ["t", "amp"]
    assert data[0, 1] == pytest.approx(0.2)


def _read(path):
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return header, data


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RONS_OUT_DIR", str(tmp_path / "routed"))
    record = run({"experiment": "fit-demo"})
    assert str(record.out_dir).startswith(str(tmp_path / "routed"))
    assert record.summary_path.exists()


def test_core_centroid_velocity_of_single_vortex_vanishes():
    # an axisymmetric vortex is a steady Euler solution: its core stays put
    family = VortexStreamFunction(1)
    q = np.array([1.3, 0.8, 0.4, -0.7])
    rule = box_rule((-5.2, -6.3), (6.0, 4.9), 96)
    ev = vorticity(0.0).evaluation(family, q, rule)
    X, V = core_centroid_velocities(rule, ev.field, ev.F, family.centers(q), [1.0])
    assert X[0] == pytest.approx([0.4, -0.7], abs=1e-12)
    assert np.max(np.abs(V)) <= 1e-12


def test_euler_core_speed_converged_in_resolution(tmp_path):
    resolution = EXPERIMENTS["euler-dipole"].defaults["resolution"]
    speeds = [
        run(
            {"experiment": "euler-dipole", "t_end": 0.01, "resolution": res},
            out_dir=tmp_path / str(res),
        ).metrics["euler_core_speed"]
        for res in (resolution, 2 * resolution)
    ]
    assert speeds[0] == pytest.approx(speeds[1], rel=0.01)
