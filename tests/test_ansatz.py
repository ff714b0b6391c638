import numpy as np
import pytest

from rons.ansatz import (
    GaussianWavePacket,
    HeatKernel,
    LinearModes,
    SineWave,
    VortexStreamFunction,
    fourier_modes,
)
from rons.engine import assemble
from rons.errors import DomainError
from rons.hilbert import make_rule, periodic_interval
from rons.models import advection_diffusion

FD_TOL = 1e-6
N_RANDOM = 50


def random_params(family, rng):
    if isinstance(family, SineWave):
        return np.array([0.2 + 2 * rng.random(), 0.3 + 2 * rng.random(), rng.uniform(-3, 3)])
    if isinstance(family, HeatKernel):
        return np.array([0.2 + 2 * rng.random(), 0.3 + 2 * rng.random()])
    if isinstance(family, GaussianWavePacket):
        return np.array(
            [0.2 + rng.random(), 0.5 + 4 * rng.random(), rng.uniform(-0.5, 0.5), rng.uniform(-3, 3)]
        )
    if isinstance(family, VortexStreamFunction):
        q = []
        for _ in range(family.n_vortices):
            q += [
                rng.choice([-1, 1]) * (0.5 + rng.random()),
                0.4 + rng.random(),
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
            ]
        return np.array(q)
    if isinstance(family, LinearModes):
        return rng.standard_normal(family.n)
    raise TypeError(family)


def points_for(family, rng):
    if isinstance(family, VortexStreamFunction):
        return rng.uniform(-3, 3, size=(40, 2))
    return np.linspace(-4, 4, 41)


def spatial_orders(family):
    if isinstance(family, VortexStreamFunction):
        return [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (3, 0), (2, 2), (0, 4)]
    if isinstance(family, GaussianWavePacket):
        return [1, 2]
    return [1, 2]


def all_families():
    return [
        SineWave(),
        HeatKernel(),
        GaussianWavePacket(),
        VortexStreamFunction(2),
        LinearModes(fourier_modes(8.0, 4)),
    ]


@pytest.mark.parametrize("family", all_families(), ids=lambda f: f.name)
def test_tangents_match_finite_differences(family):
    rng = np.random.default_rng(7)
    pts = points_for(family, rng)
    for _ in range(N_RANDOM):
        q = random_params(family, rng)
        stack = family.tangent_stack(pts, q)
        assert stack.shape == (family.n, len(pts))
        for i in range(family.n):
            h = 1e-6 * max(1.0, abs(q[i]))
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            fd = (family.evaluate(pts, qp) - family.evaluate(pts, qm)) / (2 * h)
            exact = stack[i]
            scale = np.max(np.abs(exact)) + 1e-12
            assert np.max(np.abs(exact - fd)) / scale <= FD_TOL


@pytest.mark.parametrize("family", all_families(), ids=lambda f: f.name)
def test_spatial_derivatives_match_finite_differences(family):
    rng = np.random.default_rng(11)
    pts = points_for(family, rng)
    h = 1e-6
    for _ in range(10):
        q = random_params(family, rng)
        for order in spatial_orders(family):
            exact = family.spatial_derivative(pts, q, order)
            if isinstance(order, tuple):
                axis = 0 if order[0] >= 1 else 1
                lower = (order[0] - 1, order[1]) if axis == 0 else (order[0], order[1] - 1)
                pp, pm = pts.copy(), pts.copy()
                pp[:, axis] += h
                pm[:, axis] -= h
                fd = (
                    family.spatial_derivative(pp, q, lower)
                    - family.spatial_derivative(pm, q, lower)
                ) / (2 * h)
            else:
                fd = (
                    family.spatial_derivative(pts + h, q, order - 1)
                    - family.spatial_derivative(pts - h, q, order - 1)
                ) / (2 * h)
            scale = np.max(np.abs(exact)) + 1e-12
            assert np.max(np.abs(exact - fd)) / scale <= FD_TOL


@pytest.mark.parametrize(
    "family", [VortexStreamFunction(2), VortexStreamFunction(3)], ids=lambda f: f.name
)
def test_mixed_tangent_spatial_derivatives(family):
    # the tangent tables of the kernel (one row per parameter) against
    # central differences of its value tables
    rng = np.random.default_rng(13)
    pts = points_for(family, rng)
    orders = ((1, 0), (0, 1), (2, 0), (0, 2))
    for _ in range(5):
        q = random_params(family, rng)
        _, dpsi = family.terms(pts, q, (), orders)
        for i in range(family.n):
            h = 1e-6 * max(1.0, abs(q[i]))
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            plus, minus = family.terms(pts, qp, orders, ()), family.terms(pts, qm, orders, ())
            for order in orders:
                fd = (plus[0][order] - minus[0][order]) / (2 * h)
                exact = dpsi[order][i]
                scale = np.max(np.abs(exact)) + 1e-12
                assert np.max(np.abs(exact - fd)) / scale <= FD_TOL


def _factor_products(family, nodes, q):
    """A_v X_a(x) Y_b(y) of each vortex v on its nodes for a, b <= 4, and
    for a, b <= 2 its tangents along (A_v, L_v, x_v, y_v), all from the
    eight rows of the per-axis factors."""
    A, L = (v[:, None] for v in family.unpack(q)[:2])
    X, Y = family.axis_factors(nodes, q).swapaxes(0, 1)    # (rows, vortices, nodes)
    XL, YL = X[5:], Y[5:]
    values = {(a, b): A * X[a] * Y[b] for a in range(5) for b in range(5)}
    tangents = {
        (a, b): np.stack([
            X[a] * Y[b],
            A / L * (XL[a] * Y[b] + X[a] * YL[b]),
            -A * X[a + 1] * Y[b],
            -A * X[a] * Y[b + 1],
        ])
        for a in range(3)
        for b in range(3)
    }
    return values, tangents


def _max_gap(a, b):
    return np.max(np.abs(a - b)) / (np.max(np.abs(b)) + 1e-12)


@pytest.mark.parametrize(
    "family", [VortexStreamFunction(2), VortexStreamFunction(3)], ids=lambda f: f.name
)
def test_vortex_axis_factors_match_finite_differences(family):
    # the rows X_0..X_4 against (-1/L)^a H_a(s) e^{-s^2} from numpy's
    # Hermite series on both axes, on 5 and on 10 nodes per vortex and on
    # nodes shared by all vortices; then the tangents of A_v X_a(x) Y_b(y)
    # built from the rows, XL_0..XL_2 among them, against central
    # differences
    rng = np.random.default_rng(13)
    for nodes in (5, 5, 10, 10, 10):
        q = random_params(family, rng)
        _, L, xc, yc = (v[:, None] for v in family.unpack(q))
        points = rng.uniform(-3, 3, size=(2, family.n_vortices, nodes))
        for at in (points, points[:, :1]):
            for rows, axis, center in zip(family.axis_factors(at, q).swapaxes(0, 1), at, (xc, yc)):
                s = (axis - center) / L
                for a in range(5):
                    hermite = np.polynomial.hermite.hermval(s, np.eye(a + 1)[a])
                    assert _max_gap(rows[a], (-1.0 / L) ** a * hermite * np.exp(-s * s)) <= 1e-13
        _, tangents = _factor_products(family, points, q)
        for i in range(family.n):
            h = 1e-6 * max(1.0, abs(q[i]))
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            plus = _factor_products(family, points, qp)[0]
            minus = _factor_products(family, points, qm)[0]
            v, param = divmod(i, 4)
            mine = (np.arange(family.n_vortices) == v)[:, None]
            for order, tangent in tangents.items():
                fd = (plus[order] - minus[order]) / (2 * h)
                expected = np.where(mine, tangent[param], 0.0)
                scale = np.max(np.abs(tangent)) + 1e-12
                assert np.max(np.abs(expected - fd)) / scale <= FD_TOL


def test_vortex_terms_reject_orders_beyond_the_factor_rows():
    # the factor rows go through X_4 and XL_2: values of order <= 4 per
    # axis, tangents of order <= 2
    family = VortexStreamFunction(2)
    rng = np.random.default_rng(3)
    pts, q = points_for(family, rng), random_params(family, rng)
    psi, dpsi = family.terms(pts, q, ((4, 0), (2, 2), (0, 4)), ((2, 0), (2, 2), (0, 2)))
    assert psi[2, 2].shape == (len(pts),) and dpsi[2, 2].shape == (family.n, len(pts))
    for orders, tangent_orders in ((((5, 0),), ()), (((0, 5),), ()), ((), ((3, 0),)), ((), ((0, 3),))):
        with pytest.raises(ValueError):
            family.terms(pts, q, orders, tangent_orders)
    with pytest.raises(ValueError):
        family.spatial_derivative(pts, q, (1, 5))


def test_sine_point_values():
    fam = SineWave()
    assert fam.evaluate(np.array([np.pi / 2]), np.array([1.0, 1.0, 0.0]))[0] == pytest.approx(1.0)
    assert fam.n == 3 and fam.labels == ("A", "L", "phi")


def test_wave_packet_values():
    fam = GaussianWavePacket()
    q = np.array([0.2, 5.0, 0.0, 0.0])
    assert fam.evaluate(np.array([0.0]), q)[0] == pytest.approx(0.2)
    # the phase tangent is i times the field everywhere
    x = np.linspace(-10, 10, 64)
    u = fam.evaluate(x, q)
    assert np.allclose(fam.tangent_stack(x, q)[3], 1j * u)
    # second derivative at the peak: -2 A / L^2
    assert fam.spatial_derivative(np.array([0.0]), q, 2)[0] == pytest.approx(-0.016)


def test_heat_kernel_peak_tangents():
    fam = HeatKernel()
    q = np.array([1.3, 0.8])
    x0 = np.array([0.0])
    assert fam.tangent_stack(x0, q)[:, 0] == pytest.approx([1.0, 0.0])


def test_vortex_stream_function_values():
    fam = VortexStreamFunction(1)
    q = np.array([1.0, 1.0, 0.0, 0.0])
    pts = np.array([[0.0, 0.0]])
    assert fam.evaluate(pts, q)[0] == pytest.approx(1.0)
    assert fam.n == 4
    assert VortexStreamFunction(3).n == 12


def test_linear_modes_tangents_are_modes():
    modes = fourier_modes(2 * np.pi, 4)
    fam = LinearModes(modes)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    rng = np.random.default_rng(1)
    for _ in range(3):
        q = rng.standard_normal(4)
        system = assemble(fam, q, advection_diffusion(1.0, 0.1), rule)
        assert np.allclose(system.M.entries, np.eye(4), atol=1e-12)


def test_fourier_modes_orthonormal():
    modes = fourier_modes(5.0, 6)
    rule = make_rule(periodic_interval(5.0), 128)
    vals = [m.value(rule.nodes) for m in modes]
    gram = np.array([[np.sum(rule.weights * a * b) for b in vals] for a in vals])
    assert np.allclose(gram, np.eye(6), atol=1e-12)


# the parameters whose zero lies outside each family's domain: amplitudes
# and widths
ZERO_INVALID = {
    SineWave: {0, 1},
    HeatKernel: {0, 1},
    GaussianWavePacket: {0, 1},
    VortexStreamFunction: {0, 1, 4, 5},
}


@pytest.mark.parametrize("family", all_families(), ids=lambda f: f.name)
def test_domain_check_is_require_valid(family):
    q = random_params(family, np.random.default_rng(5))
    cases = [(q, True), (q[:-1], False), (np.append(q, 1.0), False)]
    for k in range(family.n):
        at_k = np.arange(family.n) == k
        cases += [(np.where(at_k, np.nan, q), False), (np.where(at_k, np.inf, q), False)]
        cases.append((np.where(at_k, 0.0, q), k not in ZERO_INVALID.get(type(family), ())))
    for state, valid in cases:
        try:
            family.require_valid(state)
            raised = False
        except DomainError:
            raised = True
        assert raised is not valid
        assert family.domain_check(state) is valid


def test_vortex_layout_of_a_stack_is_the_layout_of_each_state():
    family = VortexStreamFunction(3)
    rng = np.random.default_rng(17)
    stack = np.array([random_params(family, rng) for _ in range(6)])
    parts, centers = family.unpack(stack), family.centers(stack)
    assert all(part.shape == (6, 3) for part in parts) and centers.shape == (6, 3, 2)
    for s, q in enumerate(stack):
        for k, (part, one) in enumerate(zip(parts, family.unpack(q))):
            assert np.array_equal(part[s], one)
            assert np.array_equal(one, q[k::4])         # A_i, L_i, x_i, y_i
        assert np.array_equal(centers[s], family.centers(q))
        assert np.array_equal(centers[s], np.column_stack([q[2::4], q[3::4]]))
    # a transposed (n, P) tangent table reads the same way
    tangents = rng.standard_normal((family.n, 5))
    assert np.array_equal(family.unpack(tangents.T)[0], tangents[0::4].T)


def test_domain_checks():
    fam = SineWave()
    assert not fam.domain_check([0.0, 1.0, 0.0])
    assert not fam.domain_check([1.0, -1.0, 0.0])
    assert fam.domain_check([1.0, 1.0, -2.0])
    with pytest.raises(DomainError):
        fam.require_valid([1.0, -1.0, 0.0])
    vfam = VortexStreamFunction(2)
    assert not vfam.domain_check([1.0, 1.0, 0, 0, 0.0, 1.0, 1, 1])  # zero amplitude
    assert vfam.domain_check([1.0, 1.0, 0, 0, -1.0, 1.0, 1, 1])


def test_vortex_points_moved_in_place_give_new_field():
    fam = VortexStreamFunction(1)
    q = np.array([1.0, 1.0, 0.0, 0.0])
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    assert fam.evaluate(pts, q) == pytest.approx([1.0, np.exp(-0.25)], rel=1e-15)
    pts += 0.5
    fresh = VortexStreamFunction(1)
    assert np.array_equal(fam.evaluate(pts, q), fresh.evaluate(pts, q))
    assert fam.evaluate(pts, q) == pytest.approx([np.exp(-0.5), np.exp(-1.25)], rel=1e-15)
    assert np.array_equal(fam.tangent_stack(pts, q), fresh.tangent_stack(pts, q))
