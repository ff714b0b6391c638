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
from rons.engine import (
    assemble,
    constraint_tangency,
    fit_initial,
    reduced_rhs,
    residual,
)
from rons.errors import (
    DependentConstraintsError,
    DomainError,
    FitError,
    ImmersionError,
)
from rons.experiments import EXPERIMENTS
from rons.hilbert import box_rule, make_rule, periodic_interval, plane, real_line
from rons.models import (
    ConservedQuantity,
    advection_diffusion,
    nlse,
    vorticity,
)


def test_linear_modes_metric_is_identity():
    fam = LinearModes(fourier_modes(2 * np.pi, 5))
    model = advection_diffusion(1.0, 0.1)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    system = assemble(fam, np.ones(5), model, rule)
    assert np.max(np.abs(system.M.entries - np.eye(5))) <= 1e-8


def test_empty_quantity_list_means_unconstrained():
    fam = SineWave()
    model = advection_diffusion(1.0, 0.1)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    system = assemble(fam, [1.0, 1.0, 0.0], model, rule, ())
    assert system.constraints is None
    assert constraint_tangency(system, reduced_rhs(system)).size == 0


def test_advdiff_reduced_rhs_is_exact():
    fam = SineWave()
    c, nu = 1.3, 0.21
    model = advection_diffusion(c, nu)
    rule = make_rule(periodic_interval(2 * np.pi * 0.8), 128)
    q = np.array([0.9, 0.8, 0.4])
    system = assemble(fam, q, model, rule)
    qdot = reduced_rhs(system)
    expected = np.array([-nu * q[0] / q[1] ** 2, 0.0, -c / q[1]])
    assert np.allclose(qdot, expected, atol=1e-12)
    # the right-hand side lies in the tangent span, so the residual vanishes
    rep = residual(system, qdot)
    assert rep.J <= 1e-16 * rep.J_raw


def test_zero_forcing_gives_zero_rhs():
    fam = SineWave()
    model = advection_diffusion(0.0, 0.0)  # F = 0
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    system = assemble(fam, [1.0, 1.0, 0.0], model, rule)
    assert np.allclose(system.f, 0.0, atol=1e-14)
    assert np.allclose(reduced_rhs(system), 0.0, atol=1e-14)


class _PushAmplitude(ConservedQuantity):
    """Synthetic quantity I(q) = q_0; not conserved by any PDE here, so the
    multiplier path is exercised with lambda != 0."""

    name = "amplitude"

    def value(self, family, q, rule=None):
        return float(q[0])

    def gradient(self, family, q, rule=None):
        g = np.zeros(len(q))
        g[0] = 1.0
        return g


def test_active_constraint_changes_dynamics():
    fam = SineWave()
    model = advection_diffusion(1.0, 0.5)  # amplitude decays unconstrained
    rule = make_rule(periodic_interval(2 * np.pi), 128)
    q = np.array([1.0, 1.0, 0.0])
    free = assemble(fam, q, model, rule)
    pinned = assemble(fam, q, model, rule, (_PushAmplitude(),))
    qdot_free = reduced_rhs(free)
    qdot_pinned = reduced_rhs(pinned)
    assert qdot_free[0] == pytest.approx(-0.5)
    assert abs(qdot_pinned[0]) <= 1e-12          # tangency enforced
    assert pinned.constraints.multipliers[0] != 0.0
    assert np.max(np.abs(constraint_tangency(pinned, qdot_pinned))) <= 1e-12
    # restricting the velocity can only increase the instantaneous error
    assert residual(pinned, qdot_pinned).J >= residual(free, qdot_free).J


def test_inactive_constraint_keeps_dynamics():
    # advection only: F lies in the tangent space and does not change A,
    # so pinning A costs nothing and lambda = 0
    fam = SineWave()
    model = advection_diffusion(1.0, 0.0)
    rule = make_rule(periodic_interval(2 * np.pi), 128)
    q = np.array([1.0, 1.0, 0.0])
    pinned = assemble(fam, q, model, rule, (_PushAmplitude(),))
    free = assemble(fam, q, model, rule)
    assert pinned.constraints.multipliers[0] == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(reduced_rhs(pinned), reduced_rhs(free), atol=1e-12)


def test_nlse_constraint_tangency():
    fam = GaussianWavePacket()
    model = nlse()
    rule = make_rule(real_line(80.0), 900)
    rng = np.random.default_rng(8)
    for _ in range(10):
        q = np.array([0.1 + 0.4 * rng.random(), 2 + 10 * rng.random(),
                      rng.uniform(-0.3, 0.3), rng.uniform(-3, 3)])
        system = assemble(fam, q, model, rule, model.conserved)
        qdot = reduced_rhs(system)
        assert np.max(np.abs(constraint_tangency(system, qdot))) <= 1e-9


def test_residual_at_zero_velocity_is_raw():
    fam = SineWave()
    model = advection_diffusion(1.0, 0.1)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    system = assemble(fam, [1.0, 1.0, 0.0], model, rule)
    rep = residual(system, np.zeros(3))
    assert rep.J == pytest.approx(rep.J_raw, rel=1e-14)
    assert rep.J_raw > 0


def test_optimal_velocity_minimizes_residual():
    fam = GaussianWavePacket()
    model = nlse()
    rule = make_rule(real_line(60.0), 600)
    q = np.array([0.25, 6.0, -0.1, 0.7])
    system = assemble(fam, q, model, rule)
    qdot = reduced_rhs(system)
    J_opt = residual(system, qdot).J
    assert 0.0 <= J_opt <= residual(system, np.zeros(4)).J_raw
    rng = np.random.default_rng(9)
    scale = 1e-3 * np.linalg.norm(qdot)
    for _ in range(100):
        delta = rng.standard_normal(4)
        delta *= scale / np.linalg.norm(delta)
        assert residual(system, qdot + delta).J > J_opt


def test_immersion_error_on_dependent_tangents():
    # two exactly coincident vortices make the tangent fields pairwise equal
    fam = VortexStreamFunction(2)
    model = vorticity(0.0)
    rule = make_rule(plane(6.0), 80)
    q = np.array([1.0, 1.0, 0.3, -0.2, 1.0, 1.0, 0.3, -0.2])
    with pytest.raises(ImmersionError):
        assemble(fam, q, model, rule, model.conserved)


def test_dependent_constraints_error():
    fam = SineWave()
    model = advection_diffusion(1.0, 0.1)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    with pytest.raises(DependentConstraintsError):
        assemble(fam, [1.0, 1.0, 0.0], model, rule, (_PushAmplitude(), _PushAmplitude()))


def test_domain_error_propagates():
    fam = SineWave()
    model = advection_diffusion(1.0, 0.1)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    with pytest.raises(DomainError):
        assemble(fam, [1.0, -1.0, 0.0], model, rule)


def test_jitter_is_flagged():
    fam = SineWave()
    model = advection_diffusion(1.0, 0.1)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    with pytest.warns(UserWarning, match="jittered"):
        system = assemble(fam, [1.0, 1.0, 0.0], model, rule, jitter=1e-10)
    assert system.jittered


def test_condition_estimates_positive():
    fam = GaussianWavePacket()
    model = nlse()
    rule = make_rule(real_line(60.0), 600)
    system = assemble(fam, [0.2, 5.0, 0.0, 0.0], model, rule, model.conserved)
    rep = residual(system, reduced_rhs(system))
    assert rep.condition_M >= 1.0
    assert rep.condition_C >= 1.0


# -- initial fit --------------------------------------------------------------


def test_fit_recovers_exact_member():
    fam = HeatKernel()
    rule = make_rule(real_line(10.0), 300)
    q_true = np.array([1.4, 2.2])
    u0 = fam.evaluate(rule.nodes, q_true)
    result = fit_initial(fam, u0, rule, q_true * 1.3)
    assert result.converged
    assert np.max(np.abs(result.q - q_true)) <= 1e-8
    assert result.residual_norm <= 1e-10


def test_fit_complex_family():
    fam = GaussianWavePacket()
    rule = make_rule(real_line(40.0), 500)
    q_true = np.array([0.3, 6.0, -0.08, 0.5])
    u0 = fam.evaluate(rule.nodes, q_true)
    guess = q_true * np.array([1.2, 0.8, 1.5, 1.1])
    result = fit_initial(fam, u0, rule, guess)
    assert result.converged
    assert np.max(np.abs(result.q - q_true)) <= 1e-7


def test_fit_orthogonal_perturbation():
    fam = HeatKernel()
    rule = make_rule(real_line(10.0), 300)
    q_true = np.array([1.0, 2.0])
    u_true = fam.evaluate(rule.nodes, q_true)
    rng = np.random.default_rng(10)
    noise = rng.standard_normal(len(rule))
    T = fam.tangent_stack(rule.nodes, q_true)
    w = rule.weights
    # project out the full tangent span (the rows are not orthogonal)
    gram = (T * w) @ T.T
    coeffs = np.linalg.solve(gram, (T * w) @ noise)
    noise -= T.T @ coeffs
    eps = 1e-4
    noise *= eps / np.sqrt(np.sum(w * noise**2))
    result = fit_initial(fam, u_true + noise, rule, q_true * 1.1)
    assert result.converged
    # the optimum stays near q_true and the residual equals the noise size
    assert np.max(np.abs(result.q - q_true)) <= 1e-3 * eps / 1e-4
    assert result.residual_norm == pytest.approx(eps, rel=1e-3)


def test_fit_far_guess_reported_honestly():
    fam = HeatKernel()
    rule = make_rule(real_line(10.0), 300)
    q_true = np.array([1.0, 0.05])
    u0 = fam.evaluate(rule.nodes, q_true)
    # guess 100x too wide: the Gaussian overlaps poorly and the fit either
    # fails or lands away from the sharp truth; both must be reported
    try:
        result = fit_initial(fam, u0, rule, np.array([1.0, 5.0]), max_iter=60)
    except FitError as err:
        assert err.best is not None
        assert err.best.residual_norm >= 0.0
    else:
        assert result.residual_norm >= 0.0  # honest diagnostics either way


def test_fit_multi_start_can_rescue():
    fam = HeatKernel()
    rule = make_rule(real_line(10.0), 300)
    q_true = np.array([1.0, 1.5])
    u0 = fam.evaluate(rule.nodes, q_true)
    result = fit_initial(fam, u0, rule, np.array([0.5, 4.0]), n_starts=5, seed=3)
    assert result.converged
    assert result.residual_norm <= 1e-6


def _leapfrog_kernel_calls(monkeypatch, model):
    """Calls of the rule kernel (`terms`) and of the per-axis kernel
    (`axis_factors`) in one constrained assemble at the leapfrog q0."""
    calls = {"terms": 0, "axis_factors": 0}

    def counted(name):
        kernel = getattr(VortexStreamFunction, name)

        def wrapper(self, *args):
            calls[name] += 1
            return kernel(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(VortexStreamFunction, name, counted(name))
    q0 = np.asarray(EXPERIMENTS["euler-leapfrog"].defaults["q0"], dtype=float)
    rule = box_rule((-2.5, -2.5), (2.5, 2.5), 40)
    system = assemble(VortexStreamFunction(4), q0, model, rule, model.conserved)
    assert system.constraints.gradients.shape == (16, 2)
    return calls


def test_constrained_leapfrog_assemble_is_one_kernel_pass(monkeypatch):
    # the model evaluation and both fluid-invariant gradients share one
    # table of Gaussian derivatives
    assert _leapfrog_kernel_calls(monkeypatch, vorticity(0.0))["terms"] == 1


def test_exact_leapfrog_assemble_is_one_kernel_pass(monkeypatch):
    # the pair, triple and link-pair products of M, f, ||F||^2 and both
    # gradients share one build of the per-axis tables, and the rule
    # kernel is not called
    calls = _leapfrog_kernel_calls(monkeypatch, vorticity(0.0, exact=True))
    assert calls == {"terms": 0, "axis_factors": 1}
