import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from rons.errors import AlignmentError
from rons.hilbert import (
    QuadratureRule,
    _leggauss,
    box_rule,
    gauss_legendre,
    inner_product,
    make_rule,
    norm_sq,
    periodic_interval,
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
    rule = box_rule((-8.0, -8.0), (8.0, 8.0), 64)
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


def _reference_root(n, k):
    """The k-th largest root of P_n and its Gauss weight: Newton on the
    plain three-term recurrence in floats from Tricomi's guess, then one
    step at 30 digits, where the weight 2 (1 - x^2) / (n P_{n-1}(x))^2 is
    evaluated."""

    def legendre(x, one):
        p0, p1 = one, x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, p0

    x = (1 - (n - 1) / (8 * n**3)) * math.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(10):
        p, q = legendre(x, 1.0)
        x -= p * (1 - x * x) / (n * (q - x * p))
    with mp.workdps(30):
        x = mp.mpf(x)
        p, q = legendre(x, mp.mpf(1))
        x -= p * (1 - x * x) / (n * (q - x * p))
        _, q = legendre(x, mp.mpf(1))
        return x, 2 * (1 - x * x) / (n * q) ** 2


@pytest.mark.parametrize("n", [2, 3, 5, 110, 1000, 1400])
def test_gauss_legendre_matches_high_precision_roots(n):
    # the end, second, middle and quarter nodes; numpy's eigenvalue rule
    # puts the end weight 8e-9 off at n = 1000
    x, w = gauss_legendre(-1.0, 1.0, n)
    for k in {1, 2, (n + 1) // 2, max(1, n // 4)}:
        root, weight = _reference_root(n, k)
        assert abs(x[n - k] - root) <= 2e-16
        assert abs(w[n - k] / weight - 1) <= 1e-13


def test_gauss_legendre_is_exact_symmetric_and_ascending():
    for n in range(2, 41):
        x, w = gauss_legendre(-1.0, 1.0, n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0)
        if n % 2:
            assert x[n // 2] == 0.0
        for k in range(n):                 # degree 2k <= 2n - 2
            assert abs(np.sum(w * x ** (2 * k)) - 2 / (2 * k + 1)) <= 1e-14
    x, w = gauss_legendre(-1.0, 1.0, 1400)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0)


def test_gauss_legendre_builds_in_linear_memory():
    # numpy's eigenvalue rule peaked at 16 MB in the same build
    tracemalloc.start()
    try:
        _leggauss.__wrapped__(1400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_box_rule_axes_span_its_nodes_and_weights():
    # a box whose axes differ: the nodes are every (x_i, y_j), x-major, and the
    # weights the products of the axes' Gauss-Legendre weights, bit for bit
    lo, hi, n = (-5.2, -6.3), (6.0, 4.9), 48
    rule = box_rule(lo, hi, n)
    x, y = rule.axes
    (gx, wx), (gy, wy) = gauss_legendre(lo[0], hi[0], n), gauss_legendre(lo[1], hi[1], n)
    assert np.array_equal(x, gx) and np.array_equal(y, gy)
    assert np.array_equal(rule.nodes[:, 0], np.repeat(x, n))
    assert np.array_equal(rule.nodes[:, 1], np.tile(y, n))
    assert np.array_equal(rule.weights, (wx[:, None] * wy[None, :]).ravel())
    assert not x.flags.writeable and not y.flags.writeable
    assert make_rule(real_line(3.0), 16).axes is None
    assert make_rule(periodic_interval(3.0), 16).axes is None


def test_tensor_rule_axes_have_one_length():
    # the vortex window tables stack the two axes as one node set
    x, wx = gauss_legendre(-1.0, 1.0, 4)
    y, wy = gauss_legendre(-1.0, 1.0, 3)
    X, Y = np.meshgrid(x, y, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    with pytest.raises(ValueError, match="equal lengths"):
        QuadratureRule(nodes, np.outer(wx, wy).ravel(), axes=(x, y))


def test_domain_has_one_positive_length():
    assert periodic_interval(3).length == 3.0
    assert real_line(2.5).length == 2.5
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            real_line(bad)


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
