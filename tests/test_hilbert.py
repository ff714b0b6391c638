import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rons.errors import AlignmentError
from rons.hilbert import (
    box_rule,
    inner_product,
    make_rule,
    norm_sq,
    periodic_interval,
    plane,
    real_line,
)


def test_periodic_rule_is_equispaced_trapezoid():
    rule = make_rule(periodic_interval(2 * np.pi), 8)
    assert len(rule) == 8
    assert np.allclose(np.diff(rule.nodes), 2 * np.pi / 8)
    assert np.allclose(rule.weights, 2 * np.pi / 8)


def test_line_rule_weight_sum():
    rule = make_rule(real_line(10.0), 200)
    assert len(rule) == 200
    assert rule.nodes.min() > -10 and rule.nodes.max() < 10
    assert abs(rule.weights.sum() - 20.0) < 1e-10


def test_plane_rule_area():
    rule = make_rule(plane(8.0), 64)
    assert len(rule) == 64 * 64
    assert rule.nodes.shape == (64 * 64, 2)
    assert abs(rule.weights.sum() - 256.0) < 1e-8


def test_make_rule_rejects_bad_resolution():
    with pytest.raises(ValueError):
        make_rule(periodic_interval(1.0), 1)
    with pytest.raises(ValueError):
        make_rule(periodic_interval(1.0), 0)


def test_domain_validation():
    with pytest.raises(ValueError):
        periodic_interval(-1.0)
    with pytest.raises(ValueError):
        real_line(0.0)


def test_constant_inner_product_is_period():
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    one = np.ones(64)
    assert abs(inner_product(one, one, rule) - 2 * np.pi) < 1e-12


def test_sin_cos_orthogonal():
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    a = np.sin(rule.nodes)
    b = np.cos(rule.nodes)
    assert abs(inner_product(a, b, rule)) < 1e-12


def test_gaussian_integral():
    # int exp(-2 x^2) dx = sqrt(pi/2)
    rule = make_rule(real_line(12.0), 400)
    g = np.exp(-rule.nodes**2)
    assert abs(inner_product(g, g, rule) - np.sqrt(np.pi / 2)) < 1e-12


def test_gaussian_norm_with_length_scale():
    # ||A exp(-x^2/L^2)||^2 = A^2 L sqrt(pi/2)
    rule = make_rule(real_line(12.0), 400)
    g = np.exp(-rule.nodes**2 / 4.0)
    assert abs(norm_sq(g, rule) - 2.0 * np.sqrt(np.pi / 2)) < 1e-12


def test_quadrature_refinement_gate():
    coarse = make_rule(real_line(12.0), 400)
    fine = make_rule(real_line(12.0), 800)
    val = lambda rule: norm_sq(np.exp(-rule.nodes**2 / 2), rule)
    assert abs(val(coarse) - val(fine)) < 1e-10


def test_norm_sq_trivial():
    rule = make_rule(periodic_interval(1.0), 16)
    assert norm_sq(np.zeros(16), rule) == 0.0
    assert abs(norm_sq(2.0 * np.ones(16), rule) - 4.0) < 1e-12


def test_complex_pairing_real_part():
    rule = make_rule(periodic_interval(1.0), 16)
    a = 1j * np.ones(16)
    b = np.ones(16)
    # Re(i * conj(1)) = 0
    assert abs(inner_product(a, b, rule)) < 1e-15
    assert abs(norm_sq(a, rule) - 1.0) < 1e-12


def test_alignment_error():
    rule = make_rule(periodic_interval(1.0), 16)
    with pytest.raises(AlignmentError):
        inner_product(np.ones(15), np.ones(16), rule)
    with pytest.raises(AlignmentError):
        norm_sq(np.ones(8), rule)


def test_box_rule_matches_domain_rule():
    a = make_rule(plane(3.0), 40)
    b = box_rule((-3.0, -3.0), (3.0, 3.0), 40)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16),
    st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16),
)
def test_inner_product_symmetry(xs, ys):
    rule = make_rule(periodic_interval(2.0), 16)
    a, b = np.array(xs), np.array(ys)
    assert inner_product(a, b, rule) == inner_product(b, a, rule)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=16, max_size=16),
    st.lists(st.floats(-100, 100), min_size=16, max_size=16),
    st.floats(-10, 10),
)
def test_inner_product_linearity(xs, ys, alpha):
    rule = make_rule(periodic_interval(2.0), 16)
    a, b = np.array(xs), np.array(ys)
    lhs = inner_product(alpha * a, b, rule)
    rhs = alpha * inner_product(a, b, rule)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16))
# w a^2 = 0.125 * 8.88e-164^2 lies below the smallest subnormal double, so
# the correctly rounded norm of this nonzero field is 0.0
@example([0.0] * 15 + [8.88e-164])
def test_norm_positive_definite(xs):
    rule = make_rule(periodic_interval(2.0), 16)
    a = np.array(xs)
    n = norm_sq(a, rule)
    assert n >= 0.0
    # positive whenever the exact value sum(w a^2) >= max|a|^2 min(w) is
    # representable as a normal double
    if np.max(np.abs(a)) ** 2 * np.min(rule.weights) >= np.finfo(float).tiny:
        assert n > 0.0
