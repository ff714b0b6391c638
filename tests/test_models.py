import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rons.ansatz import (
    GaussianWavePacket,
    LinearModes,
    Mode,
    SineWave,
    VortexStreamFunction,
    fourier_modes,
)
from rons.hilbert import box_rule, make_rule, periodic_interval, plane, real_line
from rons.models import (
    PdeModel,
    advection_diffusion,
    euler_invariants,
    nlse,
    nlse_invariants,
    vortex_integrals,
    vorticity,
)


def _constant_mode(value=1.0):
    return Mode(
        "const",
        lambda x: np.full(len(np.atleast_1d(x)), value),
        lambda x, order: np.full(len(np.atleast_1d(x)), value if order == 0 else 0.0),
    )


def test_advdiff_constant_field_is_stationary():
    fam = LinearModes([_constant_mode()])
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    F = advection_diffusion(1.0, 0.5).apply_F(fam, np.array([3.0]), rule)
    assert np.max(np.abs(F)) == 0.0


def test_advdiff_sine_values():
    model = advection_diffusion(1.0, 0.5)
    fam = SineWave()
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    F = model.apply_F(fam, np.array([1.0, 1.0, 0.0]), rule)
    x = rule.nodes
    expected = -np.cos(x) - 0.5 * np.sin(x)
    assert np.allclose(F, expected, atol=1e-12)


def test_advdiff_pure_advection_and_diffusion():
    fam = SineWave()
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    q = np.array([1.0, 1.0, 0.0])
    F_adv = advection_diffusion(1.0, 0.0).apply_F(fam, q, rule)
    assert np.allclose(F_adv, -np.cos(rule.nodes), atol=1e-12)
    F_diff = advection_diffusion(0.0, 1.0).apply_F(fam, q, rule)
    assert np.allclose(F_diff, -np.sin(rule.nodes), atol=1e-12)


def test_advdiff_rejects_negative_viscosity():
    with pytest.raises(ValueError):
        advection_diffusion(1.0, -0.1)
    with pytest.raises(ValueError):
        vorticity(-1e-3)


def test_advdiff_is_linear_on_samples():
    # superposition across two genuinely different fields
    fam = LinearModes(fourier_modes(2 * np.pi, 2))
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    model = advection_diffusion(0.7, 0.2)
    a, b = 1.7, -0.9
    F1 = model.apply_F(fam, np.array([1.0, 0.0]), rule)
    F2 = model.apply_F(fam, np.array([0.0, 1.0]), rule)
    F12 = model.apply_F(fam, np.array([a, b]), rule)
    assert np.allclose(F12, a * F1 + b * F2, rtol=0, atol=1e-14)


def test_nlse_on_constant_field_is_cubic():
    # formally, a real constant a maps to i a^3 pointwise
    fam = LinearModes([_constant_mode()])
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    a = 0.7
    F = nlse().apply_F(fam, np.array([a]), rule)
    assert np.allclose(F, 1j * a**3, atol=1e-15)


def test_nlse_F_values():
    fam = GaussianWavePacket()
    model = nlse()
    rule = make_rule(real_line(40.0), 501)
    q = np.array([0.2, 5.0, 0.0, 0.0])
    F = model.apply_F(fam, q, rule)
    # at x = 0: u_xx = -2 A / L^2 = -0.016, |u|^2 u = 0.008, F = -0.008 i
    i0 = np.argmin(np.abs(rule.nodes))
    x0 = rule.nodes[i0]
    u0 = 0.2 * np.exp(-x0**2 / 25)
    uxx0 = 0.2 * np.exp(-x0**2 / 25) * (4 * x0**2 / 625 - 2 / 25)
    assert F[i0] == pytest.approx(1j * (uxx0 + u0**3), abs=1e-12)
    exact_center = 1j * (-0.016 + 0.2**3)
    assert abs(exact_center - (-0.008j)) < 1e-15


def test_nlse_zero_field():
    fam = GaussianWavePacket()
    rule = make_rule(real_line(40.0), 64)
    # A -> 0 limit approached with the smallest admissible amplitude
    F = nlse().apply_F(fam, np.array([1e-9, 5.0, 0.0, 0.0]), rule)
    assert np.max(np.abs(F)) < 1e-9


def test_nlse_invariant_closed_forms():
    I1, I2 = nlse_invariants()
    fam = GaussianWavePacket()
    q0 = np.array([0.2, 5.0, 0.0, 0.0])
    assert I1.value(fam, q0) == pytest.approx(np.sqrt(np.pi / 2) * 0.04 * 5.0, rel=1e-14)
    assert I1.value(fam, q0) == pytest.approx(0.2506628, abs=5e-8)
    # closed-form Gaussian-moment reference for general (A, L, V)
    A, L, V = 0.3, 7.0, -0.11
    expected = np.sqrt(np.pi) * A**2 * (2 * np.sqrt(2) * (L**2 * V**2 + 1) - A**2 * L**2) / (8 * L)
    assert I2.value(fam, np.array([A, L, V, 0.4])) == pytest.approx(expected, rel=1e-14)


def test_nlse_invariants_match_quadrature():
    I1, I2 = nlse_invariants()
    fam = GaussianWavePacket()
    rule = make_rule(real_line(60.0), 800)
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = np.array([0.1 + 0.4 * rng.random(), 2 + 6 * rng.random(),
                      rng.uniform(-0.3, 0.3), rng.uniform(-3, 3)])
        u = fam.evaluate(rule.nodes, q)
        ux = fam.spatial_derivative(rule.nodes, q, 1)
        w = rule.weights
        I1_quad = np.sum(w * np.abs(u) ** 2)
        I2_quad = 0.5 * np.sum(w * np.abs(ux) ** 2) - 0.25 * np.sum(w * np.abs(u) ** 4)
        assert I1.value(fam, q) == pytest.approx(I1_quad, rel=1e-8)
        assert I2.value(fam, q) == pytest.approx(I2_quad, rel=1e-8)


def test_nlse_invariants_phase_independent():
    I1, I2 = nlse_invariants()
    fam = GaussianWavePacket()
    a = I2.value(fam, np.array([0.3, 4.0, 0.2, 0.0]))
    b = I2.value(fam, np.array([0.3, 4.0, 0.2, 2.0]))
    assert a == b
    assert I1.gradient(fam, np.array([0.3, 4.0, 0.2, 2.0]))[3] == 0.0


@pytest.mark.parametrize("quantity_index", [0, 1])
def test_invariant_gradients_match_fd(quantity_index):
    quantities = nlse_invariants()
    qt = quantities[quantity_index]
    fam = GaussianWavePacket()
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = np.array([0.1 + 0.5 * rng.random(), 1 + 8 * rng.random(),
                      rng.uniform(-0.4, 0.4), rng.uniform(-3, 3)])
        grad = qt.gradient(fam, q)
        for i in range(4):
            h = 1e-6 * max(1.0, abs(q[i]))
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            fd = (qt.value(fam, qp) - qt.value(fam, qm)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_euler_invariant_gradients_match_fd():
    fam = VortexStreamFunction(2)
    rule = make_rule(plane(8.0), 120)
    rng = np.random.default_rng(4)
    for qt in euler_invariants():
        for _ in range(6):
            q = np.array([
                1.0 + rng.random(), 0.6 + 0.5 * rng.random(), rng.uniform(-1, 1), rng.uniform(-1, 1),
                -1.0 - rng.random(), 0.7 + 0.5 * rng.random(), rng.uniform(-1, 1), rng.uniform(-1, 1),
            ])
            grad = vorticity(0.0).projection(fam, q, rule, (qt,)).B[:, 0]
            for i in range(8):
                h = 1e-6 * max(1.0, abs(q[i]))
                qp, qm = q.copy(), q.copy()
                qp[i] += h
                qm[i] -= h
                fd = (qt.value(fam, qp, rule) - qt.value(fam, qm, rule)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=2e-6, abs=1e-8)


def test_euler_invariants_single_vortex_closed_forms():
    # kinetic energy pi A^2 / 2 and enstrophy 2 pi A^2 / L^2 from the
    # radial Gaussian moment integrals
    ke, ens = euler_invariants()
    fam = VortexStreamFunction(1)
    rule = make_rule(plane(8.0), 160)
    for A, L in ((1.0, 1.0), (2.0, 0.8), (-1.5, 1.3)):
        q = np.array([A, L, 0.0, 0.0])
        assert ke.value(fam, q, rule) == pytest.approx(np.pi * A**2 / 2, rel=1e-8)
        assert ens.value(fam, q, rule) == pytest.approx(2 * np.pi * A**2 / L**2, rel=1e-8)


def test_euler_invariants_zero_field_limit():
    ke, ens = euler_invariants()
    fam = VortexStreamFunction(1)
    rule = make_rule(plane(6.0), 80)
    q = np.array([1e-8, 1.0, 0.0, 0.0])
    assert ke.value(fam, q, rule) < 1e-15
    assert ens.value(fam, q, rule) < 1e-14


def test_euler_invariants_far_separated_additivity():
    ke, ens = euler_invariants()
    fam2 = VortexStreamFunction(2)
    fam1 = VortexStreamFunction(1)
    rule = box_rule((-16.0, -8.0), (16.0, 8.0), (360, 180))
    rule1 = make_rule(plane(8.0), 180)
    q2 = np.array([1.0, 1.0, -8.0, 0.0, 1.0, 1.0, 8.0, 0.0])
    q1 = np.array([1.0, 1.0, 0.0, 0.0])
    for qt, r2, r1 in ((ke, rule, rule1), (ens, rule, rule1)):
        pair = qt.value(fam2, q2, r2)
        single = qt.value(fam1, q1, r1)
        assert pair == pytest.approx(2 * single, rel=1e-6)


def test_vorticity_axisymmetric_rhs_vanishes():
    fam = VortexStreamFunction(1)
    model = vorticity(0.0)
    rule = make_rule(plane(6.0), 100)
    F = model.apply_F(fam, np.array([1.0, 1.0, 0.0, 0.0]), rule)
    assert np.max(np.abs(F)) < 1e-12


def test_vorticity_dipole_mirror_antisymmetry():
    fam = VortexStreamFunction(2)
    model = vorticity(0.0)
    q = np.array([1.0, 0.75, -3.0, 0.5, -1.0, 0.75, -3.0, -0.5])
    rng = np.random.default_rng(5)
    pts = rng.uniform(-5, 1, size=(60, 2))
    flipped = pts * np.array([1.0, -1.0])

    class _Rule:
        pass

    rule_a, rule_b = _Rule(), _Rule()
    rule_a.nodes, rule_b.nodes = pts, flipped
    Fa = model.apply_F(fam, q, rule_a)
    Fb = model.apply_F(fam, q, rule_b)
    # omega is antisymmetric under y -> -y; so is its advection tendency
    assert np.allclose(Fb, -Fa, atol=1e-12)


def test_vorticity_zero_stream_function_limit():
    fam = VortexStreamFunction(1)
    rule = make_rule(plane(6.0), 64)
    F = vorticity(0.0).apply_F(fam, np.array([1e-9, 1.0, 0.0, 0.0]), rule)
    assert np.max(np.abs(F)) < 1e-12


def test_vorticity_field_is_negative_laplacian():
    fam = VortexStreamFunction(1)
    model = vorticity(0.0)
    rule = make_rule(plane(6.0), 80)
    q = np.array([1.0, 1.0, 0.0, 0.0])
    w = model.evaluation(fam, q, rule).field
    r2 = np.sum(rule.nodes**2, axis=1)
    expected = (4.0 / 1.0 - 4.0 * r2) * np.exp(-r2)
    assert np.allclose(w, expected, atol=1e-12)
    # peak vorticity 4A/L^2 at the center
    i0 = np.argmin(r2)
    assert w[i0] == pytest.approx(4.0 * np.exp(-r2[i0]) * (1 - r2[i0]), abs=1e-12)


def test_vorticity_requires_stream_family():
    model = vorticity(0.0)
    rule = make_rule(periodic_interval(2 * np.pi), 32)
    with pytest.raises(TypeError):
        model.apply_F(SineWave(), np.array([1.0, 1.0, 0.0]), rule)


def test_viscous_vorticity_adds_laplacian_term():
    fam = VortexStreamFunction(1)
    rule = make_rule(plane(6.0), 100)
    q = np.array([1.0, 1.0, 0.0, 0.0])
    nu = 0.37
    F_visc = vorticity(nu).apply_F(fam, q, rule)
    # axisymmetric advection vanishes, leaving nu * lap(omega)
    pts = rule.nodes
    h = 1e-5

    def omega_at(p):
        r2 = np.sum(p**2, axis=1)
        return 4.0 * (1 - r2) * np.exp(-r2)

    lap = np.zeros(len(pts))
    for ax in range(2):
        pp, pm = pts.copy(), pts.copy()
        pp[:, ax] += h
        pm[:, ax] -= h
        lap += (omega_at(pp) - 2 * omega_at(pts) + omega_at(pm)) / h**2
    assert np.allclose(F_visc, nu * lap, atol=1e-5)


# -- exact Gaussian-product integrals against quadrature --------------------


def _vortex_state(draw, n_vortices):
    q = []
    for _ in range(n_vortices):
        q += [
            draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 1.5)),
            draw(st.floats(0.5, 1.0)),
            draw(st.floats(-1.0, 1.0)),
            draw(st.floats(-1.0, 1.0)),
        ]
    return np.array(q)


@st.composite
def vortex_cases(draw):
    """Vortex states with distinct centres: vortices sharing a centre are
    one axisymmetric flow, whose f and F vanish, so every relative gap
    would compare rounding noise."""
    n_vortices = draw(st.sampled_from([2, 4]))
    nu = draw(st.sampled_from([0.0, 0.05]))
    fam = VortexStreamFunction(n_vortices)
    q = _vortex_state(draw, n_vortices)
    gaps = np.linalg.norm(fam.centers(q)[:, None] - fam.centers(q)[None], axis=-1)
    assume(np.min(gaps + np.eye(n_vortices)) >= 0.25)
    return fam, q, nu


def _integrals(fam, q, model, rule):
    """M, f, ||F||^2, E, Z and their gradients from one projection."""
    ke, ens = euler_invariants()
    proj = model.projection(fam, q, rule, (ke, ens))
    return {
        "M": proj.M,
        "f": proj.f,
        "F_norm_sq": proj.F_norm_sq,
        "energy": ke.value_at(fam, q, proj.evaluation),
        "enstrophy": ens.value_at(fam, q, proj.evaluation),
        "energy_gradient": proj.B[:, 0],
        "enstrophy_gradient": proj.B[:, 1],
    }


def _quadrature_reference(fam, q, nu):
    """The Gauss-Legendre projection on a 256^2 window padded by 9 length
    scales."""
    centers, L = fam.centers(q), np.max(fam.length_scales(q))
    rule = box_rule(centers.min(axis=0) - 9 * L, centers.max(axis=0) + 9 * L, 256)
    return _integrals(fam, q, vorticity(nu), rule)


def _rel_gap(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


def test_vorticity_projection_on_a_rule_is_the_rule_contraction():
    # without exact=True the vortex projection is the Galerkin projection
    # on the rule it is handed, like every model's: on a coarse window it
    # differs visibly from the exact one
    fam = VortexStreamFunction(2)
    q = np.array([1.0, 1.0, -1.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    rule = box_rule((-5.0, -4.0), (5.0, 4.0), 24)
    model = vorticity(0.0)
    proj = model.projection(fam, q, rule, euler_invariants())
    ev = model.evaluation(fam, q, rule)
    Tw = ev.tangents * rule.weights
    assert np.array_equal(proj.M, Tw @ ev.tangents.T)
    assert np.array_equal(proj.f, Tw @ ev.F)
    assert np.array_equal(proj.B[:, 1], ev.tangents @ (rule.weights * ev.field))
    exact = vorticity(0.0, exact=True).projection(fam, q, rule, euler_invariants())
    assert _rel_gap(proj.f, exact.f) > 1e-6
    assert _rel_gap(exact.f, _quadrature_reference(fam, q, 0.0)["f"]) <= 1e-12


@settings(max_examples=12, deadline=None)
@given(vortex_cases())
def test_vortex_integrals_match_quadrature(case):
    fam, q, nu = case
    exact = _integrals(fam, q, vorticity(nu, exact=True), None)
    for name, ref in _quadrature_reference(fam, q, nu).items():
        assert _rel_gap(exact[name], ref) <= 1e-12, name
    ke, ens = euler_invariants()
    assert ke.value(fam, q) == exact["energy"]
    assert ens.value(fam, q) == exact["enstrophy"]


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.1, 0.5), st.floats(2.0, 12.0), st.floats(-0.3, 0.3), st.floats(-3.0, 3.0)
)
def test_wave_packet_integrals_match_quadrature(A, L, V, phi):
    # the closed-form whole-line projection against the Galerkin projection
    # on a Gauss-Legendre rule of half-width 12 L
    fam, model = GaussianWavePacket(), nlse()
    q = np.array([A, L, V, phi])
    rule = make_rule(real_line(12.0 * L), 1200)
    exact = model.projection(fam, q, rule, model.conserved)
    ref = PdeModel.projection(model, fam, q, rule, model.conserved)
    assert exact.evaluation.rule is None
    assert _rel_gap(exact.M, ref.M) <= 1e-12
    assert _rel_gap(exact.f, ref.f) <= 1e-12
    assert _rel_gap(exact.F_norm_sq, ref.F_norm_sq) <= 1e-12
    assert np.array_equal(exact.B, ref.B)


@settings(max_examples=12, deadline=None)
@given(vortex_cases())
def test_vortex_integrals_node_count_converged(case):
    # 6 Gauss-Hermite nodes per axis already integrate every product exactly
    fam, q, nu = case
    six, ten = vortex_integrals(fam, q, nu), vortex_integrals(fam, q, nu, nodes=10)
    for name in ("M", "f", "F_norm_sq", "energy", "enstrophy",
                 "energy_gradient", "enstrophy_gradient"):
        assert _rel_gap(getattr(six, name), getattr(ten, name)) <= 1e-13, name
