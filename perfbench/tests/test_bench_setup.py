"""The set-up that `setup_s` times builds the reduced systems the program's
experiments build: same family, state, quadrature rule, model and
constraints at each experiment's first assemble."""

import numpy as np
import pytest

import rons.experiments as experiments
import spans
import workloads

# short runs that still build every reduced system of the experiment
SHORT = {
    "advdiff-exact": {"t_end": 0.1},
    "nlse-focusing": {"t_end": 0.5},
    "nlse-defocusing": {"t_end": 0.5},
    "nlse-unconstrained": {"t_end": 0.5},
    "galerkin-equivalence": {"n_states": 2},
    "appendixA-instability": {"t_horizon_over_lambda": 1.0},
    "euler-pair": {"t_end": 0.05},
    "euler-leapfrog": {"t_end": 0.05},
}


def _assembled_systems(monkeypatch, config, out_dir):
    """(family, q, model, rule, quantities) of every assemble call of one run."""
    calls = []
    for owner, attr in spans.BOUNDARIES["engine.assemble"][0]():
        original = vars(owner)[attr]

        def recording(family, q, model, rule, quantities=(), *args, _original=original, **kwargs):
            calls.append((family, np.asarray(q, dtype=float).copy(), model, rule, tuple(quantities)))
            return _original(family, q, model, rule, quantities, *args, **kwargs)

        monkeypatch.setattr(owner, attr, recording)
    record = experiments.run(config, out_dir=out_dir)
    monkeypatch.undo()
    assert record.status == "ok"
    return calls


def _same_system(built, called) -> bool:
    family, model, rule, quantities, q = built
    c_family, c_q, c_model, c_rule, c_quantities = called
    if type(c_family) is not type(family) or not np.array_equal(c_q, np.asarray(q, dtype=float)):
        return False
    if not (np.array_equal(c_rule.nodes, rule.nodes) and np.array_equal(c_rule.weights, rule.weights)):
        return False
    if [qt.name for qt in c_quantities] != [qt.name for qt in quantities]:
        return False
    F = model.evaluation(family, q, rule).F
    return np.array_equal(c_model.evaluation(c_family, c_q, c_rule).F, F)


@pytest.mark.parametrize("name", sorted(SHORT))
def test_setup_builds_the_systems_of_the_experiment(name, monkeypatch, tmp_path):
    config = experiments.resolve_config({"experiment": name, **SHORT[name]})
    built = workloads._experiment_setup(config)
    assert built
    calls = _assembled_systems(monkeypatch, config, tmp_path)
    for system in built:
        assert any(_same_system(system, c) for c in calls), f"{name}: no matching assemble"


def test_every_experiment_of_the_workloads_is_covered():
    assert set(workloads.CATALOG) | set(workloads.SWEEP_EXPERIMENTS) | {"euler-leapfrog"} == (
        set(SHORT) | {"fit-demo"}
    )
