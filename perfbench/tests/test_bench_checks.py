"""Each output check passes on a correct output and fails on a corrupted one."""

import json

import numpy as np
import pytest

import checks
from rons.ansatz import VortexStreamFunction
from rons.engine import assemble, reduced_rhs
from rons.experiments import EXPERIMENTS
from rons.models import Enstrophy, KineticEnergy, vorticity
from workloads import CATALOG, window

Q_LEAPFROG = np.array(EXPERIMENTS["euler-leapfrog"].defaults["q0"])
TRAJ_HEADER = (
    ["t"] + [f"q{i}" for i in range(1, 17)] + ["J", "J_raw", "I1", "I2", "cond_M", "cond_C"]
)


def _swapped(q):
    """The same set of vortices with the positive and negative pairs
    exchanged front to back: same field, same invariants."""
    v = q.reshape(4, 4).copy()
    v[[0, 1, 2, 3], 2] = v[[2, 3, 0, 1], 2]
    return v.ravel()


@pytest.fixture(scope="module")
def leapfrog_rows():
    """Five rows that swap front and back at every step, with I1/I2 at t = 0
    integrated by the program's own quadrature on the moving window."""
    family = VortexStreamFunction(4)
    rule = window(family, Q_LEAPFROG, 6.0, 96)
    I1 = KineticEnergy().value(family, Q_LEAPFROG, rule)
    I2 = Enstrophy().value(family, Q_LEAPFROG, rule)
    states = [Q_LEAPFROG if k % 2 == 0 else _swapped(Q_LEAPFROG) for k in range(5)]
    return np.array([[k, *q, 0.0, 1.0, I1, I2, 1.0, 1.0] for k, q in enumerate(states)])


def test_leapfrog_check_passes_on_a_consistent_trajectory(leapfrog_rows):
    assert checks.check_leapfrog_trajectory(TRAJ_HEADER, leapfrog_rows) == []


def test_leapfrog_check_fails_on_broken_mirror_symmetry(leapfrog_rows):
    rows = leapfrog_rows.copy()
    rows[3, 1 + 7] += 1e-6          # y of vortex 2
    (failure,) = checks.check_leapfrog_trajectory(TRAJ_HEADER, rows)
    assert "mirror" in failure


def test_leapfrog_check_fails_on_a_drifted_invariant(leapfrog_rows):
    rows = leapfrog_rows.copy()
    rows[4, 1:17:4] *= 1.0 + 1e-4   # every amplitude, symmetric
    failures = checks.check_leapfrog_trajectory(TRAJ_HEADER, rows)
    assert any("energy drifts" in f for f in failures)
    assert any("enstrophy drifts" in f for f in failures)


def test_leapfrog_check_fails_on_a_wrong_recorded_invariant(leapfrog_rows):
    rows = leapfrog_rows.copy()
    rows[0, TRAJ_HEADER.index("I1")] *= 1.0 + 1e-6
    (failure,) = checks.check_leapfrog_trajectory(TRAJ_HEADER, rows)
    assert "energy at t=0" in failure


def test_leapfrog_check_fails_without_swaps(leapfrog_rows):
    rows = np.repeat(leapfrog_rows[:1], 5, axis=0)
    failures = checks.check_leapfrog_trajectory(TRAJ_HEADER, rows)
    assert any("positive pair made 0" in f for f in failures)
    assert any("negative pair made 0" in f for f in failures)


def test_nlse_invariant_check():
    header = ["t", "q1", "q2", "q3", "q4"]
    A, L, V = 0.2, 20.0, -0.05
    rows = np.array([[t, A, L, V, 0.3 * t] for t in range(4)])
    assert checks.check_nlse_invariants(header, rows) == []
    rows[2, 1] *= 1.0 + 1e-5
    failures = checks.check_nlse_invariants(header, rows)
    assert any("mass drifts" in f for f in failures)
    assert any("energy drifts" in f for f in failures)


def test_focusing_check():
    header, dns_header = ["t", "q1"], ["t", "amp"]
    dns = np.array([[0.0, 0.2], [50.0, 0.41], [60.0, 0.3]])
    rows = np.array([[0.0, 0.2], [52.0, 0.44], [60.0, 0.3]])
    assert checks.check_focusing(header, rows, dns_header, dns) == []
    weak = rows * [1.0, 0.5]
    weak[0, 1] = 0.2
    assert any("amplification" in f for f in checks.check_focusing(header, weak, dns_header, dns))
    late = np.array([[0.0, 0.2], [52.0, 0.3], [70.0, 0.45]])
    assert any("peak time" in f for f in checks.check_focusing(header, late, dns_header, dns))


def test_growth_rate_fit():
    t = np.linspace(0.0, 20.0, 200)
    assert checks.growth_rate(t, 3.0 * np.exp(0.5 * t)) == pytest.approx(0.5, rel=1e-12)


def _write_run(run_dir, header, rows, metrics=None, status="ok"):
    """A run directory as `rons.experiments.run` leaves it: trajectory.csv
    and summary.json."""
    run_dir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    (run_dir / "trajectory.csv").write_text("\n".join(lines) + "\n")
    summary = {"status": status, "metrics": metrics or {}}
    (run_dir / "summary.json").write_text(json.dumps(summary))
    return run_dir


def _defaults(name):
    return EXPERIMENTS[name].defaults


def test_catalog_and_leapfrog_checks_fail_on_a_failed_status(tmp_path, leapfrog_rows):
    run_dir = _write_run(tmp_path / "leapfrog", TRAJ_HEADER, leapfrog_rows)
    assert checks.check_leapfrog(run_dir) == []
    _write_run(run_dir, TRAJ_HEADER, leapfrog_rows, status="failed")
    assert checks.check_leapfrog(run_dir) == ["run status is not ok"]
    for name in CATALOG:
        failed = _write_run(tmp_path / name, ["t", "q1"], [[0.0, 1.0]], status="failed")
        assert checks.check_catalog_run(name, failed, _defaults(name)) == ["run status is not ok"]


def _advdiff_rows(defaults, scale=1.0):
    A0, L0, _ = defaults["q0"]
    t = np.linspace(0.0, defaults["t_end"], 50)
    A = A0 * np.exp(-defaults["nu"] * t / L0**2) * scale
    return [[ti, Ai, L0, -ti] for ti, Ai in zip(t, A)]


def test_advdiff_check_fails_on_a_wrong_decay(tmp_path):
    defaults, header = _defaults("advdiff-exact"), ["t", "q1", "q2", "q3"]
    good = _write_run(tmp_path / "good", header, _advdiff_rows(defaults))
    assert checks.check_catalog_run("advdiff-exact", good, defaults) == []
    bad = _write_run(tmp_path / "bad", header, _advdiff_rows(defaults, scale=1.0 + 1e-5))
    (failure,) = checks.check_catalog_run("advdiff-exact", bad, defaults)
    assert "exact decay" in failure


def _instability_run(run_dir, defaults, growth=1.0, decay=1.0):
    rows = []
    for lam in defaults["lambdas"]:
        t = np.linspace(0.0, defaults["t_horizon_over_lambda"] / lam, 80)
        rows += [[lam, ti, np.exp(growth * lam * ti)] for ti in t]
    metrics = {"fitted_reduced_decay_rates": [-decay * lam for lam in defaults["lambdas"]]}
    return _write_run(run_dir, ["lambda", "t", "q"], rows, metrics)


def test_instability_check_fails_on_a_rate_off_lambda(tmp_path):
    name, defaults = "appendixA-instability", _defaults("appendixA-instability")
    assert checks.check_catalog_run(name, _instability_run(tmp_path / "good", defaults), defaults) == []
    fast = _instability_run(tmp_path / "fast", defaults, growth=1.02)
    assert len(checks.check_catalog_run(name, fast, defaults)) == len(defaults["lambdas"])
    slow = _instability_run(tmp_path / "slow", defaults, decay=0.98)
    assert len(checks.check_catalog_run(name, slow, defaults)) == len(defaults["lambdas"])


def test_fit_demo_check_fails_when_q_fit_misses_q_true(tmp_path):
    defaults = _defaults("fit-demo")
    q_true = np.asarray(defaults["q0"])
    good = _write_run(tmp_path / "good", ["t"], [[0.0]], {"q_fit": list(q_true)})
    assert checks.check_catalog_run("fit-demo", good, defaults) == []
    bad = _write_run(tmp_path / "bad", ["t"], [[0.0]], {"q_fit": list(q_true * (1.0 + 1e-6))})
    (failure,) = checks.check_catalog_run("fit-demo", bad, defaults)
    assert "q_true" in failure


def test_galerkin_check_fails_on_m_off_identity_or_a_rhs_deviation(tmp_path):
    name, defaults = "galerkin-equivalence", _defaults("galerkin-equivalence")
    header = ["state", "rhs_deviation", "M_identity_deviation"]
    rows = np.array([[k, 1e-15, 4e-16] for k in range(defaults["n_states"])])
    assert checks.check_catalog_run(name, _write_run(tmp_path / "good", header, rows), defaults) == []
    m_off = rows.copy()
    m_off[7, 2] = 1e-10
    (failure,) = checks.check_catalog_run(name, _write_run(tmp_path / "m", header, m_off), defaults)
    assert "M - I" in failure
    rhs_off = rows.copy()
    rhs_off[3, 1] = 1e-7
    (failure,) = checks.check_catalog_run(name, _write_run(tmp_path / "rhs", header, rhs_off), defaults)
    assert "rhs deviation" in failure
    (failure,) = checks.check_catalog_run(name, _write_run(tmp_path / "short", header, rows[:-1]), defaults)
    assert "states recorded" in failure


@pytest.fixture(scope="module")
def sweep_state():
    family, model = VortexStreamFunction(4), vorticity(0.0)
    q = Q_LEAPFROG * (1.0 + 0.03 * np.random.default_rng(7).standard_normal(16))
    rule = window(family, q, 6.0, 48)
    system = assemble(family, q, model, rule, model.conserved)
    return family, model, q, rule, system


def test_qdot_check(sweep_state):
    family, model, q, rule, system = sweep_state
    ev = model.evaluation(family, q, rule)
    B = system.constraints.gradients
    qdot = reduced_rhs(system)
    assert checks.check_qdot(qdot, ev, rule.weights, B) == []
    bad = qdot * (1.0 + 1e-6 * np.arange(len(qdot)))
    assert checks.check_qdot(bad, ev, rule.weights, B) != []
    # the unconstrained optimum violates the constraints, so it fails too
    assert checks.check_qdot(system.M.solve(system.f), ev, rule.weights, B) != []


def test_gradient_check(sweep_state):
    family, model, q, rule, system = sweep_state
    B = system.constraints.gradients
    assert checks.check_gradients(family, q, rule, model.conserved, B) == []
    bad = B.copy()
    bad[5, 1] *= 1.0 + 1e-4
    (failure,) = checks.check_gradients(family, q, rule, model.conserved, bad)
    assert "enstrophy" in failure


def test_mirror_gap_and_swaps_are_exact_on_symmetric_input():
    states = np.array([Q_LEAPFROG, _swapped(Q_LEAPFROG), Q_LEAPFROG])
    assert checks.mirror_gap(states) == 0.0
    assert checks.front_back_swaps(states[:, 2], states[:, 10]) == 2
