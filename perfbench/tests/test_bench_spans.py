"""Span arithmetic, layer metrics and the handling of missing boundaries."""

import numpy as np
import pytest

import rons.engine
import rons.experiments
import rons.oracles
import spans


def test_self_time_subtracts_the_union_of_direct_children():
    #        0 root [0, 10]
    #        1   a [1, 4]          2 grandchild [2, 3] under a
    #        3   c [3.5, 5.5]      overlaps a and b
    #        4   b [5, 6]
    start = [0.0, 1.0, 2.0, 3.5, 5.0]
    end = [10.0, 4.0, 3.0, 5.5, 6.0]
    parent = [-1, 0, 1, 0, 0]
    own = spans.self_times(start, end, parent)
    # root: children cover [1, 6] once -> 10 - 5
    assert own == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_clips_children_to_the_parent_interval():
    own = spans.self_times([0.0, 0.5], [1.0, 2.0], [-1, 0])
    assert own == pytest.approx([0.5, 1.5])


def _synthetic_pass():
    """run > integrate > [assemble x3 (two at the same q), callback0,
    callback > assemble], plus one assemble outside any integrate."""
    names = ["experiments.run", "integrate.integrate", "engine.assemble",
             spans.CALLBACK_FIRST, spans.CALLBACK_STEP]
    rows = [  # name, parent, start, end
        (0, -1, 0.0, 20.0),
        (1, 0, 1.0, 11.0),
        (2, 1, 2.0, 3.0),
        (2, 1, 3.0, 4.0),
        (3, 1, 4.0, 5.0),
        (2, 1, 5.0, 7.0),
        (4, 1, 7.0, 10.0),
        (2, 6, 8.0, 9.0),
        (2, 0, 12.0, 13.0),
    ]
    name, parent, start, end = (list(c) for c in zip(*rows))
    keys = {2: "a", 3: "b", 5: "a", 7: "c", 8: "d"}
    return names, name, parent, start, end, keys


def test_pass_metrics_on_synthetic_spans():
    names, name, parent, start, end, keys = _synthetic_pass()
    m = spans.pass_metrics(names, name, parent, start, end, keys, 0, len(name), 123)
    assert m["engine.assemble_calls"] == 5
    assert m["engine.distinct_states"] == 4
    assert m["engine.unique_ratio"] == pytest.approx(0.8)
    assert m["engine.assemble_ms_p50"] == pytest.approx(1000.0)
    assert m["integrate.accepted_steps"] == 1
    assert m["integrate.rhs_per_step"] == pytest.approx(4.0)   # 4 of 5 under integrate
    assert m["integrate.callback_s"] == pytest.approx(4.0)
    # integrate [1, 11] minus children [2, 10]
    assert m["integrate.self_s"] == pytest.approx(2.0)
    # run [0, 20] minus integrate [1, 11] and the outer assemble [12, 13]
    assert m["experiments.self_s"] == pytest.approx(9.0)
    assert m["experiments.bytes_written"] == 123
    assert m["oracles.nlse_dns_s"] == 0.0


def test_pass_metrics_of_a_later_pass_use_pass_local_parents():
    names, name, parent, start, end, keys = _synthetic_pass()
    n = len(name)
    shift = lambda p: p + n if p >= 0 else -1  # noqa: E731
    name2 = name + name
    parent2 = parent + [shift(p) for p in parent]
    start2, end2 = start + [s + 100 for s in start], end + [e + 100 for e in end]
    keys2 = {**keys, **{k + n: v for k, v in keys.items()}}
    m = spans.pass_metrics(names, name2, parent2, start2, end2, keys2, n, 2 * n, 0)
    assert m["integrate.self_s"] == pytest.approx(2.0)
    assert m["engine.distinct_states"] == 4


def test_tracer_records_a_real_run_and_uninstalls(tmp_path):
    original = rons.engine.assemble
    tracer = spans.Tracer()
    try:
        assert tracer.missing == set()
        assert rons.engine.assemble is not original
        record = rons.experiments.run({"experiment": "advdiff-exact", "t_end": 1.0}, tmp_path)
    finally:
        tracer.uninstall()
    assert rons.engine.assemble is original
    assert record.status == "ok"
    m = spans.layer_metrics(tracer, [(0, len(tracer))], [1])
    rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert m["integrate.accepted_steps"][0] == len(rows) - 2   # header, t = 0
    assert m["engine.assemble_calls"][0] > m["integrate.accepted_steps"][0]
    assert m["experiments.validate_s"][0] > 0.0
    assert m["hilbert.rule_builds"][0] == 1


def test_a_missing_binding_yields_an_absent_metric(monkeypatch):
    monkeypatch.delattr(rons.oracles, "nlse_dns")
    monkeypatch.delattr(rons.experiments, "nlse_dns")
    tracer = spans.Tracer()
    tracer.uninstall()
    assert tracer.missing == {"oracles.nlse_dns"}
    m = spans.layer_metrics(tracer, [(0, 0)], [0])
    assert "oracles.nlse_dns_s" not in m
    assert set(m) == set(spans.LAYER_METRICS) - {"oracles.nlse_dns_s"}


def test_a_missing_stepper_drops_the_step_metrics(monkeypatch):
    import importlib

    integrate_module = importlib.import_module("rons.integrate")
    monkeypatch.delattr(integrate_module, "solve_adaptive_rk45")
    monkeypatch.delattr(integrate_module, "solve_fixed_rk4")
    tracer = spans.Tracer()
    tracer.uninstall()
    m = spans.layer_metrics(tracer, [(0, 0)], [0])
    assert "integrate.accepted_steps" not in m
    assert "integrate.rhs_per_step" not in m
    assert "integrate.self_s" in m


def test_call_counter_counts_every_binding():
    counter = spans.CallCounter()
    try:
        from rons.ansatz import SineWave
        from rons.hilbert import make_rule, periodic_interval
        from rons.models import advection_diffusion

        rule = make_rule(periodic_interval(2 * np.pi), 32)
        rons.engine.assemble(SineWave(), [1.0, 1.0, 0.0], advection_diffusion(1.0, 0.1), rule)
        rons.experiments.assemble(SineWave(), [1.0, 1.0, 0.0], advection_diffusion(1.0, 0.1), rule)
    finally:
        counter.uninstall()
    assert counter.calls == 2
    assert counter.found
