import importlib

import numpy as np
import pytest

from rons.ansatz import GaussianWavePacket, SineWave, VortexStreamFunction
from rons.engine import assemble, reduced_rhs
from rons.errors import DomainError, IntegrationAbort
from rons.experiments import EXPERIMENTS, run
from rons.hilbert import box_rule, make_rule, periodic_interval, real_line
from rons.integrate import (
    _DP_A,
    _DP_B4,
    _DP_C,
    IntegratorConfig,
    Trajectory,
    integrate,
    solve_adaptive_rk45,
    solve_fixed_rk4,
)
from rons.models import (
    _LINK_PAIRS,
    _SOLVE_PRODUCTS,
    PRODUCT_NODES,
    PdeModel,
    _product_sites,
    advection_diffusion,
    nlse,
    vorticity,
)
from rons.oracles import exact_advdiff


@pytest.fixture(scope="module")
def advdiff_setup():
    fam = SineWave()
    model = advection_diffusion(1.0, 0.1)
    rule = make_rule(periodic_interval(2 * np.pi), 128)
    return fam, model, rule


def exact_params(t, A0=1.0, L0=1.0, c=1.0, nu=0.1):
    return np.array([A0 * np.exp(-nu * t / L0**2), L0, -c * t / L0])


def rk4_advdiff(advdiff_setup, t_end, dt):
    """The advdiff reduced ODE from q = (1, 1, 0), by fixed-step RK4."""
    fam, model, rule = advdiff_setup

    def rhs(_t, q):
        return reduced_rhs(assemble(fam, q, model, rule, ()))

    return Trajectory(*solve_fixed_rk4(rhs, 0.0, np.array([1.0, 1.0, 0.0]), t_end, dt))


def test_advdiff_trajectory_matches_exact(advdiff_setup):
    fam, model, rule = advdiff_setup
    cfg = IntegratorConfig(t_end=10.0, rtol=1e-8, atol=1e-10)
    traj = integrate(fam, model, rule, (), [1.0, 1.0, 0.0], cfg)
    for i, t in enumerate(traj.times):
        err = np.abs(traj.states[i] - exact_params(t))
        assert np.max(err) <= 1e-6
    assert np.max(np.abs(traj.qdots[:, 1])) <= 1e-10


def test_constant_trajectory_for_zero_forcing(advdiff_setup):
    fam, _, rule = advdiff_setup
    model = advection_diffusion(0.0, 0.0)
    cfg = IntegratorConfig(t_end=3.0)
    traj = integrate(fam, model, rule, (), [1.0, 1.0, 0.2], cfg)
    assert np.max(np.abs(traj.states - traj.states[0])) <= 1e-12


def test_rk4_convergence_order(advdiff_setup):
    def endpoint_error(dt):
        traj = rk4_advdiff(advdiff_setup, 2.0, dt)
        return np.max(np.abs(traj.states[-1] - exact_params(2.0)))

    ratio = endpoint_error(0.2) / endpoint_error(0.1)
    assert 12.0 <= ratio <= 20.0


def test_constrained_nlse_drift_over_long_run():
    fam = GaussianWavePacket()
    model = nlse()
    rule = make_rule(real_line(150.0), 1400)
    cfg = IntegratorConfig(t_end=40.0, rtol=1e-8, atol=1e-10)
    traj = integrate(fam, model, rule, model.conserved, [0.2, 5.0, 0.0, 0.0], cfg)
    drift = traj.invariant_drift()
    assert np.all(drift <= 1e-6)
    assert np.max(traj.diagnostics["tangency"]) <= 1e-9


def test_unconstrained_packet_conserves_invariants_automatically():
    # the wave packet's tangent space is closed under multiplication by i
    # (the phase direction is i*u and the L, V directions span a complex
    # line), so the orthogonal projection of the Hamiltonian dynamics keeps
    # mass and energy constant even without enforcing them: the multiplier
    # solve returns lambda = 0 and both runs follow the same ODE
    fam = GaussianWavePacket()
    model = nlse()
    rule = make_rule(real_line(120.0), 1000)
    cfg = IntegratorConfig(t_end=20.0, rtol=1e-8, atol=1e-10)
    q0 = [0.2, 20.0, -0.05, 0.0]
    free = integrate(fam, model, rule, (), q0, cfg)
    pinned = integrate(fam, model, rule, model.conserved, q0, cfg)
    assert np.all(free.invariant_drift() <= 1e-6)
    assert np.max(np.abs(free.states[-1] - pinned.states[-1])) <= 1e-8


# dense output: the field u(., q(t)) at any time from the interpolated q(t)


def test_dense_eval_at_stored_time(advdiff_setup):
    fam, _, rule = advdiff_setup
    traj = rk4_advdiff(advdiff_setup, 5.0, 0.25)
    k = len(traj) // 2
    field = fam.evaluate(rule.nodes, traj.interpolate(traj.times[k]))
    direct = fam.evaluate(rule.nodes, traj.states[k])
    assert np.allclose(field, direct, atol=1e-14)
    # an array of times gives one state per time; the last one exactly
    assert np.allclose(traj.interpolate(traj.times), traj.states, atol=1e-14)
    assert np.array_equal(traj.interpolate(traj.times[-1:])[0], traj.states[-1])


def test_dense_eval_matches_exact_solution(advdiff_setup):
    fam, model, rule = advdiff_setup
    cfg = IntegratorConfig(t_end=3.0, rtol=1e-8, atol=1e-10)
    traj = integrate(fam, model, rule, (), [1.0, 1.0, 0.0], cfg)
    field = fam.evaluate(rule.nodes, traj.interpolate(1.0))
    exact = exact_advdiff(1.0, 1.0, 1.0, 0.1, rule.nodes, 1.0)
    assert np.max(np.abs(field - exact)) <= 1e-6


def _hermite_reference(traj, t):
    """Cubic Hermite q(t) one time at a time, in float64 scalars."""
    j = int(np.searchsorted(traj.times, t, side="right")) - 1
    if j >= len(traj.times) - 1:
        return traj.states[-1].copy()
    h = traj.times[j + 1] - traj.times[j]
    s = (t - traj.times[j]) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s**2 * (3 - 2 * s)
    h11 = s**2 * (s - 1)
    return (
        h00 * traj.states[j]
        + h10 * h * traj.qdots[j]
        + h01 * traj.states[j + 1]
        + h11 * h * traj.qdots[j + 1]
    )


def test_interpolate_array_matches_scalar_reference(advdiff_setup):
    fam, model, rule = advdiff_setup
    cfg = IntegratorConfig(t_end=3.0, rtol=1e-8, atol=1e-10)
    traj = integrate(fam, model, rule, (), [1.0, 1.0, 0.0], cfg)
    ts = np.r_[np.linspace(0.0, 3.0, 2001), traj.times]
    reference = np.array([_hermite_reference(traj, t) for t in ts])
    assert np.array_equal(traj.interpolate(ts), reference)
    assert np.array_equal(traj.interpolate(ts[7]), reference[7])


def test_dense_eval_midpoint_refinement(advdiff_setup):
    # cubic Hermite between steps is locally fourth order: halving the step
    # shrinks the midpoint gap against a fine reference by about 2^4
    def midpoint_gap(dt):
        traj = rk4_advdiff(advdiff_setup, 1.0, dt)
        t_mid = traj.times[0] + dt / 2
        return np.max(np.abs(traj.interpolate(t_mid) - exact_params(t_mid)))

    g1, g2 = midpoint_gap(0.25), midpoint_gap(0.125)
    assert g2 <= g1 / 8.0


def test_dense_eval_out_of_range(advdiff_setup):
    traj = rk4_advdiff(advdiff_setup, 1.0, 0.5)
    with pytest.raises(ValueError):
        traj.interpolate(2.0)
    with pytest.raises(ValueError):
        traj.interpolate(np.array([0.5, -0.1]))


class _ShrinkWidth(PdeModel):
    """Drives L toward zero at unit rate: F = -dU/dL, so qdot = (0, -1, 0)."""

    name = "shrink"

    def apply_F(self, family, q, rule):
        return -family.tangent_stack(rule.nodes, q)[1]


def test_domain_boundary_aborts_with_partial_trajectory(advdiff_setup):
    fam, _, rule = advdiff_setup
    cfg = IntegratorConfig(t_end=2.0, rtol=1e-8, atol=1e-10)
    with pytest.raises(IntegrationAbort) as excinfo:
        integrate(fam, _ShrinkWidth(), rule, (), [1.0, 1.0, 0.0], cfg)
    partial = excinfo.value.partial
    assert isinstance(partial, Trajectory)
    assert len(partial) >= 1
    # L decayed toward the boundary before the abort
    assert partial.states[-1][1] < 1.0
    assert partial.times[-1] < 2.0
    # the stages past the boundary were rejected steps, not a breakdown of
    # the reduced equations; with two halvings allowed the abort names the
    # admissible set and carries the rejected stage's domain error
    assert "reduced equations broke down" not in str(excinfo.value)
    few = IntegratorConfig(t_end=2.0, rtol=1e-8, atol=1e-10, max_domain_retries=2)
    with pytest.raises(IntegrationAbort, match="inside the admissible set") as excinfo:
        integrate(fam, _ShrinkWidth(), rule, (), [1.0, 1.0, 0.0], few)
    assert isinstance(excinfo.value.cause.__cause__, DomainError)
    assert len(excinfo.value.partial) >= 1


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, rtol=-1e-8)


def test_rk4_step_costs_four_evaluations():
    calls = []

    def f(t, y):
        calls.append(t)
        return np.array([y[1], -np.sin(y[0]) + 0.1 * t])

    y0, dt, n_steps = np.array([1.0, 0.0]), 0.125, 8
    times, states, _ = solve_fixed_rk4(f, 0.0, y0, n_steps * dt, dt)
    assert len(times) == n_steps + 1
    assert len(calls) == 4 * n_steps + 1

    t, y = 0.0, y0.copy()
    for step in range(n_steps):
        k1 = f(t, y)
        k2 = f(t + dt / 2, y + dt / 2 * k1)
        k3 = f(t + dt / 2, y + dt / 2 * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + dt
        assert np.array_equal(states[step + 1], y)


@pytest.fixture
def assembled_states(monkeypatch):
    """Every q the integrator assembles, as bytes, in call order."""
    module = importlib.import_module("rons.integrate")
    original = module.assemble
    states = []

    def recorded(family, q, *args, **kwargs):
        states.append(np.asarray(q, dtype=float).tobytes())
        return original(family, q, *args, **kwargs)

    monkeypatch.setattr(module, "assemble", recorded)
    return states


def test_rk45_euler_pair_assembles_each_state_once(assembled_states, tmp_path):
    # the pair rotates, so no two stages of a step share a state (in the
    # translating dipole, qdot is constant and stages 6 and 7, both at
    # c = 1, land on the same q)
    record = run(
        {"experiment": "euler-pair", "t_end": 1.0, "resolution": 40}, out_dir=tmp_path
    )
    assert record.status == "ok"
    assert len(assembled_states) > 0
    assert len(set(assembled_states)) == len(assembled_states)


def test_rk45_euler_dipole_assembles_each_state_once(assembled_states, tmp_path):
    # the dipole translates with constant qdot, so DP5(4) stages 6 and 7,
    # both at c = 1, land on the same q; stage 7 reuses stage 6's derivative
    record = run({"experiment": "euler-dipole", "t_end": 0.5}, out_dir=tmp_path)
    assert record.status == "ok"
    assert len(assembled_states) > 0
    assert len(set(assembled_states)) == len(assembled_states)


def test_rk45_leapfrog_prefix_rejects_almost_no_steps(assembled_states):
    # from t = 3 on, leapfrog's error per unit step grows about 3.4x per
    # step; predictive step control shortens the step ahead of that growth,
    # where the elementary rule h *= 0.9 err^(-1/5) rejected 20 of 47 steps
    defaults = EXPERIMENTS["euler-leapfrog"].defaults
    model = vorticity(defaults["nu"], exact=True)
    traj = integrate(
        VortexStreamFunction(4), model, None, model.conserved, defaults["q0"],
        IntegratorConfig(t_end=5.0, rtol=1e-7, atol=1e-9),
    )
    accepted = len(traj) - 1
    # q0 and the initial-step probe, then six stages per attempt (FSAL)
    attempts, rest = divmod(len(assembled_states) - 2, 6)
    assert rest == 0
    assert attempts - accepted <= 2


@pytest.mark.parametrize("exact", [False, True], ids=["quadrature", "exact"])
def test_euler_pair_recorder_adds_no_kernel_pass(monkeypatch, exact):
    # the recorder reads the invariants from the assembled system's bundle,
    # so it adds no kernel pass for them: each assemble builds the per-axis
    # tables `axis_factors` once, on the window's axes for the quadrature
    # projection and on the Gauss-Hermite nodes for the exact one.  Only
    # the recorder reads ||F||^2: on a rule it is a sum over the bundle's F,
    # while the exact bundle builds its link-pair products then, one more
    # call per recorded state on the link-pair nodes alone
    module = importlib.import_module("rons.integrate")
    kernel, original = VortexStreamFunction.axis_factors, module.assemble
    widths, assembles = [], []

    def counted_kernel(self, points, *args):
        widths.append(np.shape(points)[-1])
        return kernel(self, points, *args)

    def counted_assemble(*args, **kwargs):
        assembles.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(VortexStreamFunction, "axis_factors", counted_kernel)
    monkeypatch.setattr(module, "assemble", counted_assemble)
    defaults = EXPERIMENTS["euler-pair"].defaults
    model = vorticity(defaults["nu"], exact=exact)
    rule = None if exact else box_rule((-7.0, -6.0), (7.0, 6.0), 40)
    traj = integrate(
        VortexStreamFunction(2), model, rule, model.conserved, defaults["q0"],
        IntegratorConfig(t_end=0.5),
    )
    assert traj.diagnostics["invariants"].shape == (len(traj), 2)
    assert len(assembles) > len(traj)
    if not exact:
        assert len(widths) == len(assembles)
        return
    solve, link_pairs = (
        _product_sites(2, PRODUCT_NODES, groups).blocks.shape[1] * PRODUCT_NODES
        for groups in (_SOLVE_PRODUCTS, _LINK_PAIRS)
    )
    assert len(widths) == len(assembles) + len(traj)
    assert widths.count(solve) == len(assembles)
    assert widths.count(link_pairs) == len(traj)


def test_exact_single_vortex_follows_the_heat_flow():
    # a lone vortex does not advect itself, so psi follows the heat flow
    # psi_t = nu lap psi, which keeps it a Gaussian: L^2 = L0^2 + 4 nu t,
    # A L^2 constant and the centre fixed, with J = 0 up to rounding
    q0, nu = np.array([1.0, 0.8, 0.3, -0.2]), 0.05
    traj = integrate(
        VortexStreamFunction(1), vorticity(nu, exact=True), None, (), q0,
        IntegratorConfig(t_end=2.0),
    )
    A, L, x, y = traj.states.T
    assert traj.times[-1] == 2.0
    assert np.max(np.abs(L**2 - (q0[1] ** 2 + 4.0 * nu * traj.times))) <= 1e-9
    assert np.max(np.abs(A * L**2 / (q0[0] * q0[1] ** 2) - 1.0)) <= 1e-7
    assert (x == q0[2]).all() and (y == q0[3]).all()
    diag = traj.diagnostics
    assert np.max(diag["J"] / diag["J_raw"]) <= 1e-12


# -- DP5(4) step control against its reference form -------------------------


def _reference_rk45(f, t0, y0, t_end, rtol, atol):
    """DP5(4) with the step control written out in its reference form:
    np.linalg.norm for the error norms, np.array_equal for the repeated
    seventh stage, the stage times read from the numpy tableau, and the
    predictive step-size rule (Gustafsson 1994; Hairer & Wanner, Solving
    ODEs II, IV.8) read from the list of accepted steps and errors, with the
    RADAU5 floor on the previous error applied where it is read."""

    def rms(x):
        return np.linalg.norm(x) / np.sqrt(x.size)

    y, t = np.asarray(y0, dtype=float).copy(), float(t0)
    k0 = f(t, y)
    scale = atol + rtol * np.abs(y)
    d0, d1 = rms(y / scale), rms(k0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = rms((f(t + h0, y + h0 * k0) - k0) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1, t_end - t)
    times, states, derivs = [t], [y], [k0]
    accepted = []  # (h, err) of every accepted step
    while t < t_end:
        h = min(h, t_end - t)
        k = np.empty((7, y.size))
        k[0] = k0
        ys = y
        for s in range(1, 7):
            prev, ys = ys, y + h * (_DP_A[s] @ k[:s])
            if _DP_C[s] == _DP_C[s - 1] and np.array_equal(ys, prev):
                k[s] = k[s - 1]
            else:
                k[s] = f(t + _DP_C[s] * h, ys)
        y4 = y + h * (_DP_B4 @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(ys))
        err = rms((ys - y4) / scale)
        if err <= 1.0:
            t, y, k0 = t + h, ys, k[-1].copy()
            times.append(t)
            states.append(y)
            derivs.append(k0)
            elementary = 0.9 * err ** -0.2 if err > 0 else 5.0
            if accepted and err > 0:
                h_acc, err_acc = accepted[-1]
                trend = (max(err_acc, 1e-2) / err) ** 0.2
                factor = min(elementary, elementary * (h / h_acc) * trend)
            else:
                factor = elementary
            accepted.append((h, err))
            h *= float(np.clip(factor, 0.2, 5.0))
        else:
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
    return np.array(times), np.array(states), np.array(derivs)


def _instability_system():
    # qddot_k = lambda_k^2 q_k for three modes in phase planes rotated by 0.6
    lams, ct, st = np.array([0.5, 1.0, 2.0]), np.cos(0.6), np.sin(0.6)

    def f(_t, z):
        q = ct * z[:3] + st * z[3:]
        dq, dv = -st * z[:3] + ct * z[3:], lams**2 * q
        return np.concatenate([ct * dq - st * dv, st * dq + ct * dv])

    return f, np.array([1.0, 0.5, -1.0, 0.0, -0.5, 2.0]), 20.0, 1e-10, 1e-14


def _van_der_pol():
    def f(_t, y):
        return np.array([y[1], 2.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])

    return f, np.array([2.0, 0.0]), 15.0, 1e-8, 1e-10


@pytest.mark.parametrize("system", [_instability_system, _van_der_pol])
def test_rk45_matches_reference_step_control_bit_for_bit(system):
    f, y0, t_end, rtol, atol = system()
    got = solve_adaptive_rk45(f, 0.0, y0, t_end, rtol=rtol, atol=atol)
    want = _reference_rk45(f, 0.0, y0, t_end, rtol, atol)
    assert len(got[0]) > 100
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)
