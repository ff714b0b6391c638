import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rons
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
from rons.hilbert import box_rule, make_rule, periodic_interval, real_line
from rons.models import (
    ConservedQuantity,
    KineticEnergy,
    PdeModel,
    Projection,
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
    rule = box_rule((-6.0, -6.0), (6.0, 6.0), 80)
    q = np.array([1.0, 1.0, 0.3, -0.2, 1.0, 1.0, 0.3, -0.2])
    with pytest.raises(ImmersionError) as err:
        assemble(fam, q, model, rule, model.conserved)
    assert str(err.value).startswith("metric tensor M (8x8, eigvalsh from ")
    assert str(err.value).endswith(") is not positive-definite")


def test_dependent_constraints_error():
    fam = SineWave()
    model = advection_diffusion(1.0, 0.1)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    with pytest.raises(DependentConstraintsError) as err:
        assemble(fam, [1.0, 1.0, 0.0], model, rule, (_PushAmplitude(), _PushAmplitude()))
    assert str(err.value).startswith("constraint matrix C = B^T M^-1 B (2x2, eigvalsh from ")
    assert str(err.value).endswith(") is singular: the constraint gradients are dependent")


def _leapfrog_q0():
    return np.asarray(EXPERIMENTS["euler-leapfrog"].defaults["q0"], dtype=float)


def test_dependent_fluid_invariants_raise():
    # the same gradient twice: K is singular, but LU meets an exactly zero
    # pivot only by chance, so the rank test on C^-1 has to catch it
    model = vorticity(0.0, exact=True)
    with pytest.raises(DependentConstraintsError):
        assemble(VortexStreamFunction(4), _leapfrog_q0(), model, None,
                 (KineticEnergy(), KineticEnergy()))


def test_domain_error_propagates():
    fam = SineWave()
    model = advection_diffusion(1.0, 0.1)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    with pytest.raises(DomainError):
        assemble(fam, [1.0, -1.0, 0.0], model, rule)


class _Corrupted(PdeModel):
    """Advection-diffusion whose projection carries one corrupted entry in
    M, f or B: the flat entry `at` set to `value`."""

    name = "corrupted"

    def __init__(self, where, value, at=0):
        self.where, self.value, self.at = where, value, at
        self.base = advection_diffusion(1.0, 0.1)

    def projection(self, family, q, rule=None, quantities=()):
        proj = self.base.projection(family, q, rule, quantities)
        parts = {"M": proj.M.copy(), "f": proj.f.copy(), "B": proj.B.copy()}
        parts[self.where].flat[self.at] = self.value
        return Projection(parts["M"], parts["f"], parts["B"], proj.evaluation)


@pytest.mark.parametrize(
    "where, value",
    [("M", np.nan), ("M", np.inf), ("f", np.nan), ("f", -np.inf), ("B", np.nan), ("B", np.inf)],
)
def test_non_finite_system_raises(where, value):
    fam = SineWave()
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    with pytest.raises(ValueError):
        assemble(fam, [1.0, 1.0, 0.0], _Corrupted(where, value), rule, (_PushAmplitude(),))


def test_asymmetric_metric_raises():
    # M[0, 1] one ulp up: the solve reads M as it comes, so an M that is not
    # exactly symmetric is refused, not symmetrized
    fam, q = SineWave(), np.array([1.0, 1.0, 0.0])
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    M = advection_diffusion(1.0, 0.1).projection(fam, q, rule).M
    assemble(fam, q, _Corrupted("M", M[0, 1], at=1), rule)  # the entry as it was
    with pytest.raises(ValueError, match="symmetric"):
        assemble(fam, q, _Corrupted("M", np.nextafter(M[0, 1], np.inf), at=1), rule)


def _null_space_qdot(system):
    """The constrained optimum by an independent route: least squares for
    qdot = N y on a null-space basis N of B^T from numpy's SVD."""
    M, f, B = system.M.entries, system.f, system.constraints.gradients
    N = np.linalg.svd(B.T)[2][B.shape[1]:].T
    return N @ np.linalg.lstsq(N.T @ M @ N, N.T @ f, rcond=None)[0]


@st.composite
def well_conditioned_states(draw):
    """Wave-packet states, or states of 2 or 4 well-separated vortices with
    nu = 0 or 0.05, each with its exact model and its conserved set."""
    if draw(st.booleans()):
        q = [draw(st.floats(0.1, 0.5)), draw(st.floats(2.0, 12.0)),
             draw(st.floats(-0.3, 0.3)), draw(st.floats(-3.0, 3.0))]
        return GaussianWavePacket(), nlse(), np.array(q)
    fam = VortexStreamFunction(draw(st.sampled_from([2, 4])))
    q = []
    for _ in range(fam.n_vortices):
        q += [draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 1.5)),
              draw(st.floats(0.5, 1.0)), draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))]
    q = np.array(q)
    gaps = np.linalg.norm(fam.centers(q)[:, None] - fam.centers(q)[None], axis=-1)
    assume(np.min(gaps + 10 * np.eye(fam.n_vortices)) >= 0.5)
    return fam, vorticity(draw(st.sampled_from([0.0, 0.05])), exact=True), q


@settings(max_examples=40, deadline=None)
@given(well_conditioned_states())
# a pair whose constrained qdot cancels most of M^-1 f: without the
# projection sweep its tangency is 1.1e-12
@example((VortexStreamFunction(2), vorticity(0.05, exact=True),
          np.array([-1.0, 0.5, 1.0, -1.5, -1.0, 0.5, 0.0, 1.0])))
def test_stacked_solve_matches_null_space_least_squares(case):
    fam, model, q = case
    system = assemble(fam, q, model, None, model.conserved)
    assume(np.linalg.cond(system.M.entries) <= 1e4)
    qdot = reduced_rhs(system)
    reference = _null_space_qdot(system)
    # relative to the unconstrained velocity M^-1 f as well: where the
    # constraint cancels most of it, qdot carries that rounding
    free = np.linalg.solve(system.M.entries, system.f)
    scale = max(np.max(np.abs(reference)), np.max(np.abs(free)))
    assert np.max(np.abs(qdot - reference)) <= 1e-12 * scale
    assert np.max(np.abs(constraint_tangency(system, qdot))) <= 1e-12


def _mpmath_qdot(system, digits=40):
    """qdot from the bordered system [[M, B], [B^T, 0]] [qdot; lambda] = [f; 0]
    of the same floating-point M, f and B, solved with `digits` digits."""
    M, f, B = system.M.entries, system.f, system.constraints.gradients
    n, m = B.shape
    K = np.zeros((n + m, n + m))
    K[:n, :n], K[:n, n:], K[n:, :n] = M, B, B.T
    with mpmath.workdps(digits):
        x = mpmath.lu_solve(mpmath.matrix(K.tolist()), mpmath.matrix(list(f) + [0.0] * m))
        return np.array([float(x[i]) for i in range(n)])


@pytest.mark.parametrize("nu, bound", [(0.0, 1.2e-15), (0.05, 1.2e-13)])
def test_bordered_solve_matches_40_digit_solve(nu, bound):
    # leapfrog q0 and four states q0 (1 + 0.05 z); the largest errors
    # measured relative to max |qdot| are 4.4e-16 (nu = 0) and 4.2e-14
    # (nu = 0.05, where qdot cancels most of M^-1 f)
    fam, model = VortexStreamFunction(4), vorticity(nu, exact=True)
    q0 = _leapfrog_q0()
    rng = np.random.default_rng(1)
    for q in [q0] + [q0 * (1 + 0.05 * rng.standard_normal(16)) for _ in range(4)]:
        system = assemble(fam, q, model, None, model.conserved)
        reference = _mpmath_qdot(system)
        error = np.max(np.abs(reduced_rhs(system) - reference))
        assert error <= bound * np.max(np.abs(reference))


def _explicit_cond_C(system):
    M, B = system.M.entries, system.constraints.gradients
    d = np.diag(np.linalg.cholesky(B.T @ np.linalg.solve(M, B)))
    return (d.max() / d.min()) ** 2


@pytest.mark.parametrize("case", ["nlse", "leapfrog"])
def test_residual_condition_C_is_the_cholesky_bound_of_C(case):
    if case == "nlse":
        fam, model, rule = GaussianWavePacket(), nlse(), make_rule(real_line(60.0), 600)
        states = [np.array([0.2, 5.0, 0.0, 0.0]), np.array([0.3, 7.0, -0.1, 0.6])]
    else:
        fam, model, rule = VortexStreamFunction(4), vorticity(0.05, exact=True), None
        states = [_leapfrog_q0(), _leapfrog_q0() * 1.03]
    for q in states:
        system = assemble(fam, q, model, rule, model.conserved)
        rep = residual(system, reduced_rhs(system))
        assert rep.condition_C == pytest.approx(_explicit_cond_C(system), rel=1e-12)


def test_import_loads_no_scipy(tmp_path):
    # not on import, and not by a run that uses the NLSE reference either
    code = (
        "import sys, rons, rons.experiments, rons.cli; "
        "rons.experiments.run({'experiment': 'nlse-focusing', 't_end': 1.0}, "
        f"out_dir={str(tmp_path)!r}); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(rons.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


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
        result = fit_initial(fam, u0, rule, np.array([1.0, 5.0]))
    except FitError as err:
        assert err.best is not None
        assert err.best.residual_norm >= 0.0
    else:
        assert result.residual_norm >= 0.0  # honest diagnostics either way


def _leapfrog_kernel_calls(monkeypatch, model):
    """Calls of the scattered-point tables (`terms`) and of the per-axis
    kernel (`axis_factors`) in one constrained assemble at the leapfrog q0."""
    calls = {"terms": 0, "axis_factors": 0}

    def counted(name):
        kernel = getattr(VortexStreamFunction, name)

        def wrapper(self, *args):
            calls[name] += 1
            return kernel(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(VortexStreamFunction, name, counted(name))
    rule = box_rule((-2.5, -2.5), (2.5, 2.5), 40)
    system = assemble(VortexStreamFunction(4), _leapfrog_q0(), model, rule, model.conserved)
    assert system.constraints.gradients.shape == (16, 2)
    return calls


def test_constrained_leapfrog_assemble_is_one_kernel_pass(monkeypatch):
    # the model evaluation and both fluid-invariant gradients share one
    # build of the per-axis factors on the window's two axes
    calls = _leapfrog_kernel_calls(monkeypatch, vorticity(0.0))
    assert calls == {"terms": 0, "axis_factors": 1}


def test_exact_leapfrog_assemble_is_one_kernel_pass(monkeypatch):
    # the pair and triple products of M, f and both gradients share one
    # build of the per-axis tables, and the scattered-point tables are not
    # built; the link-pair products of ||F||^2 are not built at all
    calls = _leapfrog_kernel_calls(monkeypatch, vorticity(0.0, exact=True))
    assert calls == {"terms": 0, "axis_factors": 1}
