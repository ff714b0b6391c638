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
from rons.hilbert import QuadratureRule, box_rule, make_rule, periodic_interval, real_line
from rons.models import (
    _GROUPS,
    PRODUCT_NODES,
    PdeModel,
    _grams,
    _link_pair_sum,
    _product_sites,
    _solve_integrals,
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
    rule = box_rule((-8.0, -8.0), (8.0, 8.0), 120)
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
    rule = box_rule((-8.0, -8.0), (8.0, 8.0), 160)
    for A, L in ((1.0, 1.0), (2.0, 0.8), (-1.5, 1.3)):
        q = np.array([A, L, 0.0, 0.0])
        assert ke.value(fam, q, rule) == pytest.approx(np.pi * A**2 / 2, rel=1e-8)
        assert ens.value(fam, q, rule) == pytest.approx(2 * np.pi * A**2 / L**2, rel=1e-8)


def test_euler_invariants_zero_field_limit():
    ke, ens = euler_invariants()
    fam = VortexStreamFunction(1)
    rule = box_rule((-6.0, -6.0), (6.0, 6.0), 80)
    q = np.array([1e-8, 1.0, 0.0, 0.0])
    assert ke.value(fam, q, rule) < 1e-15
    assert ens.value(fam, q, rule) < 1e-14


def test_euler_invariants_far_separated_additivity():
    ke, ens = euler_invariants()
    fam2 = VortexStreamFunction(2)
    fam1 = VortexStreamFunction(1)
    rule = box_rule((-16.0, -8.0), (16.0, 8.0), 360)
    rule1 = box_rule((-8.0, -8.0), (8.0, 8.0), 180)
    q2 = np.array([1.0, 1.0, -8.0, 0.0, 1.0, 1.0, 8.0, 0.0])
    q1 = np.array([1.0, 1.0, 0.0, 0.0])
    for qt, r2, r1 in ((ke, rule, rule1), (ens, rule, rule1)):
        pair = qt.value(fam2, q2, r2)
        single = qt.value(fam1, q1, r1)
        assert pair == pytest.approx(2 * single, rel=1e-6)


def test_vorticity_axisymmetric_rhs_vanishes():
    fam = VortexStreamFunction(1)
    model = vorticity(0.0)
    rule = box_rule((-6.0, -6.0), (6.0, 6.0), 100)
    F = model.evaluation(fam, np.array([1.0, 1.0, 0.0, 0.0]), rule).F
    assert np.max(np.abs(F)) < 1e-12


def test_vorticity_dipole_mirror_antisymmetry():
    # the dipole maps onto itself under y -> -y with its amplitudes
    # negated: omega is antisymmetric, and so is its advection tendency.
    # On a box rule symmetric in y the mirror of node row j is row n-1-j
    fam = VortexStreamFunction(2)
    model = vorticity(0.0)
    q = np.array([1.0, 0.75, -3.0, 0.5, -1.0, 0.75, -3.0, -0.5])
    n = 30
    rule = box_rule((-5.0, -4.0), (1.0, 4.0), n)
    y = rule.axes[1]
    assert np.array_equal(y[::-1], -y)
    ev = model.evaluation(fam, q, rule)
    F = ev.F.reshape(n, n)
    assert np.max(np.abs(F)) > 0.1
    assert np.allclose(F[:, ::-1], -F, atol=1e-12)
    w = ev.field.reshape(n, n)
    assert np.allclose(w[:, ::-1], -w, atol=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.05])
def test_vorticity_window_tables_match_scattered_terms(nu):
    # the outer products on a box rule's axes, which differ, against the
    # scattered-point tables at the rule's nodes: pins the x-major node
    # order and the viscous term
    fam = VortexStreamFunction(3)
    q = np.array([1.3, 0.8, 0.4, -0.7, -1.1, 0.9, -0.5, 0.6, 0.7, 1.2, 2.0, 1.5])
    rule = box_rule((-5.2, -6.3), (6.0, 4.9), 48)
    ev = vorticity(nu).evaluation(fam, q, rule)
    orders = ((1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (1, 2), (2, 1), (0, 3), (4, 0), (2, 2), (0, 4))
    psi, dpsi = fam.terms(rule.nodes, q, orders, ((2, 0), (0, 2), (1, 0), (0, 1)))
    w_x, w_y = -(psi[3, 0] + psi[1, 2]), -(psi[2, 1] + psi[0, 3])
    lap_w = -(psi[4, 0] + 2.0 * psi[2, 2] + psi[0, 4])
    expected = {
        "field": -(psi[2, 0] + psi[0, 2]),
        "F": psi[1, 0] * w_y - psi[0, 1] * w_x + nu * lap_w,
        "tangents": -(dpsi[2, 0] + dpsi[0, 2]),
        "psi_x": psi[1, 0],
        "psi_y": psi[0, 1],
        "psi_x_tangents": dpsi[1, 0],
        "psi_y_tangents": dpsi[0, 1],
    }
    for name, table in expected.items():
        assert _rel_gap(getattr(ev, name), table) <= 1e-13, name


def test_vorticity_needs_a_rule_with_axes():
    fam = VortexStreamFunction(1)
    q = np.array([1.0, 1.0, 0.0, 0.0])
    rule = box_rule((-4.0, -4.0), (4.0, 4.0), 16)
    scattered = QuadratureRule(rule.nodes.copy(), rule.weights.copy())
    with pytest.raises(TypeError):
        vorticity(0.0).evaluation(fam, q, scattered)
    for qt in euler_invariants():
        with pytest.raises(TypeError):
            qt.value(fam, q, scattered)
        with pytest.raises(TypeError):
            qt.value(fam, q)


def test_vorticity_zero_stream_function_limit():
    fam = VortexStreamFunction(1)
    rule = box_rule((-6.0, -6.0), (6.0, 6.0), 64)
    F = vorticity(0.0).evaluation(fam, np.array([1e-9, 1.0, 0.0, 0.0]), rule).F
    assert np.max(np.abs(F)) < 1e-12


def test_vorticity_field_is_negative_laplacian():
    fam = VortexStreamFunction(1)
    model = vorticity(0.0)
    rule = box_rule((-6.0, -6.0), (6.0, 6.0), 80)
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
        model.evaluation(SineWave(), np.array([1.0, 1.0, 0.0]), rule)


def test_viscous_vorticity_adds_laplacian_term():
    fam = VortexStreamFunction(1)
    rule = box_rule((-6.0, -6.0), (6.0, 6.0), 100)
    q = np.array([1.0, 1.0, 0.0, 0.0])
    nu = 0.37
    F_visc = vorticity(nu).evaluation(fam, q, rule).F
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
        "F_norm_sq": proj.evaluation.F_norm_sq(),
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
    G = Tw @ ev.tangents.T
    assert np.array_equal(proj.M, 0.5 * (G + G.T))
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
    assert _rel_gap(exact.evaluation.F_norm_sq(), ref.evaluation.F_norm_sq()) <= 1e-12
    assert np.array_equal(exact.B, ref.B)


@settings(max_examples=12, deadline=None)
@given(vortex_cases())
def test_vortex_integrals_node_count_converged(case):
    # per axis every integrand has degree <= 8: PRODUCT_NODES Gauss-Hermite
    # nodes, exact through degree 2 PRODUCT_NODES - 1, agree with 10 nodes
    # to rounding, and one node fewer does not
    fam, q, nu = case
    exact, ten, fewer = (
        vortex_integrals(fam, q, nu, nodes=k) for k in (PRODUCT_NODES, 10, PRODUCT_NODES - 1)
    )
    names = ("M", "f", "F_norm_sq", "energy", "enstrophy", "energy_gradient", "enstrophy_gradient")
    exact, ten, fewer = (
        {**vars(ints), "F_norm_sq": ints.F_norm_sq()} for ints in (exact, ten, fewer)
    )
    for name in names:
        assert _rel_gap(exact[name], ten[name]) <= 1e-13, name
    assert max(_rel_gap(fewer[name], ten[name]) for name in names) > 1e-6


@pytest.mark.parametrize("nu", [0.0, 0.05])
@pytest.mark.parametrize("n_vortices", [2, 4])
def test_vortex_solve_pass_equals_a_full_pass(n_vortices, nu):
    # the projection builds only the pair and triple products; one table of
    # every product, link pairs included, as one pass builds them, gives the
    # same M, f, gradients and invariants bit for bit, and its link pairs
    # the same ||F||^2; 10 seeded states per case
    fam, model = VortexStreamFunction(n_vortices), vorticity(nu, exact=True)
    ke, ens = euler_invariants()
    sites = _product_sites(n_vortices, PRODUCT_NODES, _GROUPS)
    rng = np.random.default_rng(n_vortices)
    for _ in range(10):
        q = np.column_stack([
            rng.choice([-1.0, 1.0], n_vortices) * rng.uniform(0.5, 1.5, n_vortices),
            rng.uniform(0.5, 1.0, n_vortices),
            rng.uniform(-1.5, 1.5, (n_vortices, 2)),
        ]).ravel()
        gram = _grams(fam, q, sites, PRODUCT_NODES)
        full = _solve_integrals(fam, q, nu, PRODUCT_NODES, sites, gram)
        proj = model.projection(fam, q, None, (ke, ens))
        assert np.array_equal(proj.M, full.M)
        assert np.array_equal(proj.f, full.f)
        assert np.array_equal(proj.B[:, 0], full.energy_gradient)
        assert np.array_equal(proj.B[:, 1], full.enstrophy_gradient)
        assert ke.value_at(fam, q, proj.evaluation) == full.energy
        assert ens.value_at(fam, q, proj.evaluation) == full.enstrophy
        F_norm_sq = _link_pair_sum(gram, sites, fam.unpack(q)[0])
        for term in full.viscous:
            F_norm_sq += term
        assert proj.evaluation.F_norm_sq() == F_norm_sq


# four vortices (A, L, x, y each) at distinct centres; the first two alone
# are a 2-vortex state
_FOUR_VORTICES = np.array(
    [1.0, 0.8, -0.6, 0.2, -1.2, 0.6, 0.7, -0.3, 0.9, 0.7, 0.1, 1.1, -0.8, 0.9, 0.4, -1.0]
)


@pytest.mark.parametrize("n_vortices", [2, 4])
def test_exact_vortex_M_is_symmetric_bit_for_bit(n_vortices):
    fam = VortexStreamFunction(n_vortices)
    M = vortex_integrals(fam, _FOUR_VORTICES[: fam.n], 0.05).M
    assert (M == M.T).all()


_PACKET_STATE = np.array([0.3, 4.0, 0.1, 0.5])
_PROJECTIONS = {
    "advdiff": lambda: advection_diffusion(1.3, 0.21).projection(
        SineWave(), np.array([1.2, 0.9, 0.4]), make_rule(periodic_interval(2 * np.pi * 0.9), 128)
    ),
    "galerkin": lambda: advection_diffusion(1.0, 0.1).projection(
        LinearModes(fourier_modes(2 * np.pi, 5)),
        np.array([1.0, -0.5, 0.3, 0.2, -0.1]),
        make_rule(periodic_interval(2 * np.pi), 64),
    ),
    "nlse-quadrature": lambda: PdeModel.projection(
        nlse(), GaussianWavePacket(), _PACKET_STATE, make_rule(real_line(48.0), 600)
    ),
    "vortex-window": lambda: vorticity(0.05).projection(
        VortexStreamFunction(4), _FOUR_VORTICES, box_rule((-4.0, -4.0), (4.0, 4.0), 48)
    ),
    "packet": lambda: nlse().projection(GaussianWavePacket(), _PACKET_STATE, None),
    "exact-vortex": lambda: vorticity(0.05, exact=True).projection(
        VortexStreamFunction(4), _FOUR_VORTICES, None
    ),
}


@pytest.mark.parametrize("case", list(_PROJECTIONS))
def test_every_projection_returns_M_symmetric_bit_for_bit(case):
    # the four quadrature contractions are asymmetric at the 1e-17 level
    # before 0.5 (M + M^T); the closed forms are symmetric by their formulas
    M = _PROJECTIONS[case]().M
    assert (M == M.T).all()


def test_single_vortex_F_norm_sq_is_its_viscous_term():
    # a lone vortex does not advect itself: ||F||^2 is nu^2 ||lap w||^2
    # alone, against the 200^2 Gauss-Legendre window padded by 9 L
    fam, q, nu = VortexStreamFunction(1), np.array([1.0, 0.8, 0.3, -0.2]), 0.05
    centre, pad = q[2:], 9 * q[1]
    rule = box_rule(centre - pad, centre + pad, 200)
    ref = vorticity(nu).evaluation(fam, q, rule).F_norm_sq()
    assert _rel_gap(vortex_integrals(fam, q, nu).F_norm_sq(), ref) <= 1e-12


@pytest.mark.parametrize("nu", [0.0, 0.05])
def test_vortex_F_norm_sq_on_demand_matches_quadrature(nu):
    # the link-pair products built on demand plus the stored nu-terms
    # against the 256^2 Gauss-Legendre window
    fam, q = VortexStreamFunction(4), _FOUR_VORTICES
    exact = vortex_integrals(fam, q, nu)
    assert len(exact.viscous) == (2 if nu > 0 else 0)
    assert _rel_gap(exact.F_norm_sq(), _quadrature_reference(fam, q, nu)["F_norm_sq"]) <= 1e-12
