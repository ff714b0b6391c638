import numpy as np
import pytest
from scipy.fft import fft, ifft

from rons.ansatz import GaussianWavePacket, LinearModes, fourier_modes
from rons.engine import assemble, reduced_rhs
from rons.errors import BlowupError, CollisionError
from rons.hilbert import make_rule, periodic_interval
from rons.models import advection_diffusion
from rons.oracles import (
    PointVortexState,
    SpectralState,
    _etdrk4_tables,
    _rotated_modes_rhs,
    exact_advdiff,
    finite_time_instability,
    galerkin_rhs,
    nlse_dns,
    point_vortex,
    point_vortex_hamiltonian,
    spectral_grid,
)

LENGTH = 64 * np.sqrt(2.0) * np.pi


def test_exact_advdiff_values():
    x = np.array([0.3, 1.7])
    assert np.allclose(exact_advdiff(2.0, 1.5, 1.0, 0.1, x, 0.0), 2.0 * np.sin(x / 1.5))
    # frozen wave without transport or damping
    assert np.allclose(
        exact_advdiff(1.0, 1.0, 0.0, 0.0, x, 7.7), exact_advdiff(1.0, 1.0, 0.0, 0.0, x, 0.0)
    )
    val = exact_advdiff(1.0, 1.0, 1.0, 0.1, np.pi / 2 + 1.0, 1.0)
    assert val == pytest.approx(np.exp(-0.1), rel=1e-12)
    assert val == pytest.approx(0.9048374, abs=5e-8)
    with pytest.raises(ValueError):
        exact_advdiff(1.0, 0.0, 1.0, 0.1, x, 0.0)


# -- spectral solver ----------------------------------------------------------


def test_dns_zero_stays_zero():
    u0 = SpectralState(LENGTH, np.zeros(64, dtype=complex))
    times, fields = nlse_dns(u0, 0.025, 1.0)
    assert fields.shape == (41, 64) and times[-1] == pytest.approx(1.0)
    assert np.max(np.abs(fields)) == 0.0


def test_dns_steps_must_end_at_t_end():
    u0 = SpectralState(LENGTH, np.zeros(64, dtype=complex))
    for dt in (0.3, 0.4):                # 3 and 2 whole steps would stop short
        with pytest.raises(ValueError):
            nlse_dns(u0, dt, 1.0)
    # 0.3 / 0.025 is 11.999999999999998 in floating point: twelve steps
    times, _ = nlse_dns(u0, 0.025, 0.3)
    assert len(times) == 13 and times[-1] == pytest.approx(0.3)


def test_dns_plane_wave_exact():
    n = 512
    x = spectral_grid(LENGTH, n)
    k = 2 * np.pi * 8 / LENGTH
    a = 0.1
    u0 = SpectralState(LENGTH, a * np.exp(1j * k * x))
    _, fields = nlse_dns(u0, 0.001, 1.0)
    exact = a * np.exp(1j * k * x) * np.exp(1j * (a**2 - k**2) * 1.0)
    assert np.max(np.abs(fields[-1] - exact)) <= 1e-8


def test_dns_mass_conserved_long_run():
    fam = GaussianWavePacket()
    x = spectral_grid(LENGTH, 512)
    u0 = SpectralState(LENGTH, fam.evaluate(x, np.array([0.2, 5.0, 0.0, 0.0])))
    times, fields = nlse_dns(u0, 0.025, 40.0)
    assert times[::40] == pytest.approx(np.arange(41.0))
    masses = np.sum(np.abs(fields) ** 2, axis=1) * u0.dx
    assert np.max(np.abs(masses - masses[0])) / masses[0] <= 1e-8


@pytest.mark.parametrize(
    "q0,t_end",
    [
        (np.array([0.2, 20.0, -0.05, 0.0]), 60.0),
        (np.array([0.2, 5.0, 0.0, 0.0]), 40.0),
    ],
    ids=["focusing", "defocusing"],
)
def test_dns_refinement_gate(q0, t_end):
    fam = GaussianWavePacket()

    def peak(n_modes, dt):
        x = spectral_grid(LENGTH, n_modes)
        _, fields = nlse_dns(SpectralState(LENGTH, fam.evaluate(x, q0)), dt, t_end)
        return np.max(np.abs(fields[:, n_modes // 2]))   # x = 0

    base = peak(512, 0.025)
    assert abs(peak(1024, 0.025) - base) < 1e-5
    assert abs(peak(512, 0.0125) - base) < 1e-5


def _nine_transform_dns(u0, dt, t_end):
    """ETDRK4 in its reference form: the nonlinearity 1j * fft(|u|^2 u) of
    u = ifft(v) at each of the four stages, nine transforms per step."""
    k = 2.0 * np.pi * np.fft.fftfreq(len(u0.values), d=u0.dx)
    E, E2, Q, f1, f2, f3 = _etdrk4_tables(-1j * k**2, dt)

    def nonlin(v_hat):
        u = ifft(v_hat)
        return 1j * fft(np.abs(u) ** 2 * u)

    v, fields = fft(u0.values), [u0.values]
    for _ in range(int(round(t_end / dt))):
        Nv = nonlin(v)
        a = E2 * v + Q * Nv
        Na = nonlin(a)
        b = E2 * v + Q * Na
        Nb = nonlin(b)
        c = E2 * a + Q * (2.0 * Nb - Nv)
        Nc = nonlin(c)
        v = E * v + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * Nc
        fields.append(ifft(v))
    return np.array(fields)


def test_dns_matches_nine_transform_reference():
    # the focusing packet through its peak: reusing the last step's field
    # and folding i and 2 into the tables moves only rounding
    x = spectral_grid(LENGTH, 512)
    u0 = SpectralState(LENGTH, GaussianWavePacket().evaluate(x, np.array([0.2, 20.0, -0.05, 0.0])))
    _, fields = nlse_dns(u0, 0.025, 60.0)
    reference = _nine_transform_dns(u0, 0.025, 60.0)
    assert fields.shape == reference.shape
    assert np.max(np.abs(fields - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_dns_blowup_reports_last_state():
    x = spectral_grid(LENGTH, 512)
    u0 = SpectralState(LENGTH, 5.0 * np.exp(-(x**2) / 25.0) + 0j)
    with pytest.raises(BlowupError) as excinfo:
        nlse_dns(u0, 5.0, 100.0)
    last = excinfo.value.last_state
    assert isinstance(last, SpectralState) and last.length == LENGTH
    assert np.all(np.isfinite(last.values))
    # the last finite record: a step of 5.0 before the blow-up time
    assert 0.0 <= last.time < 100.0 and last.time % 5.0 == 0.0


def test_spectral_state_validation():
    with pytest.raises(ValueError):
        SpectralState(10.0, np.zeros(12, dtype=complex))  # not a power of two
    with pytest.raises(ValueError):
        SpectralState(10.0, np.full(32, np.nan, dtype=complex))


# -- point vortices -----------------------------------------------------------


def test_dipole_translates_at_expected_speed():
    gamma, d = 2.0, 1.0
    state = PointVortexState([gamma, -gamma], [[0.0, d / 2], [0.0, -d / 2]])
    times, centers = point_vortex(state, 0.5, 5.0)
    assert centers.shape == (len(times), 2, 2)
    mid = centers.mean(axis=1)
    speed = np.linalg.norm(mid[-1] - mid[0]) / times[-1]
    assert speed == pytest.approx(gamma / (2 * np.pi * d), rel=1e-9)
    # straight-line motion: lateral deviation negligible vs distance traveled
    distance = np.linalg.norm(mid[-1] - mid[0])
    assert np.max(np.abs(mid[:, 1] - mid[0, 1])) <= 1e-8 * distance
    # shape preserved
    seps = np.linalg.norm(centers[:, 0] - centers[:, 1], axis=1)
    assert np.max(np.abs(seps - d)) <= 1e-9


def test_pair_rotates_at_expected_rate():
    gamma, d = 1.5, 2.0
    state = PointVortexState([gamma, gamma], [[-d / 2, 0.0], [d / 2, 0.0]])
    times, centers = point_vortex(state, 0.2, 20.0)
    rel = centers[:, 1] - centers[:, 0]
    theta = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    omega = np.polyfit(times, theta, 1)[0]
    assert omega == pytest.approx(gamma / (np.pi * d**2), rel=1e-6)


def test_hamiltonian_conserved():
    # constant-velocity dipole: drift at rounding level even at defaults
    state = PointVortexState([1.0, -1.0], [[0.0, 0.5], [0.0, -0.5]])
    _, centers = point_vortex(state, 0.5, 10.0)
    H = np.array([point_vortex_hamiltonian(state.strengths, x) for x in centers])
    assert np.max(np.abs(H - H[0])) / abs(H[0]) <= 1e-9 if H[0] != 0 else True
    # rotating pair at tight tolerances
    pair = PointVortexState([1.0, 1.0], [[-1.0, 0.0], [1.0, 0.0]])
    _, centers = point_vortex(pair, 0.5, 50.0, rtol=1e-12, atol=1e-14)
    H = np.array([point_vortex_hamiltonian(pair.strengths, x) for x in centers])
    assert np.max(np.abs(H - H[0])) / abs(H[0]) <= 1e-9


def test_collision_detection():
    state = PointVortexState([1.0, -1.0], [[0.0, 0.5], [0.0, -0.5]])
    with pytest.raises(CollisionError):
        point_vortex(state, 0.1, 1.0, min_separation=2.0)
    with pytest.raises(ValueError):
        PointVortexState([1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])


# -- Galerkin comparator --------------------------------------------------------


def test_galerkin_eigenmode_decay():
    # single diffusion eigenmode: qdot = -nu k^2 q
    fam = LinearModes(fourier_modes(2 * np.pi, 2))  # sin(x), cos(x)
    model = advection_diffusion(0.0, 0.7)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    q = np.array([0.9, -0.4])
    qdot = galerkin_rhs(fam, q, model, rule)
    assert np.allclose(qdot, -0.7 * q, atol=1e-12)


def test_galerkin_zero_forcing():
    fam = LinearModes(fourier_modes(2 * np.pi, 3))
    model = advection_diffusion(0.0, 0.0)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    assert np.allclose(galerkin_rhs(fam, np.ones(3), model, rule), 0.0, atol=1e-14)


def test_galerkin_rejects_non_orthonormal():
    modes = fourier_modes(2 * np.pi, 2)
    doubled = LinearModes([modes[0], modes[0]])
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    with pytest.raises(ValueError):
        galerkin_rhs(doubled, np.ones(2), advection_diffusion(1.0, 0.1), rule)


def test_galerkin_matches_engine_on_linear_family():
    fam = LinearModes(fourier_modes(2 * np.pi, 5))
    model = advection_diffusion(1.0, 0.1)
    rule = make_rule(periodic_interval(2 * np.pi), 64)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = rng.standard_normal(5)
        engine = reduced_rhs(assemble(fam, q, model, rule))
        projected = galerkin_rhs(fam, q, model, rule)
        assert np.max(np.abs(engine - projected)) <= 1e-8


# -- accumulated-error instability ---------------------------------------------


def test_instability_generic_rates():
    res = finite_time_instability([0.5, 1.0, 2.0], [1.0], [0.0], 40.0)
    assert np.all(np.abs(res.fitted_rates - res.rates) / res.rates <= 0.01)


def test_instability_closed_form_value():
    res = finite_time_instability([1.0], [1.0], [0.0], 1.0)
    assert res.times[-1] == pytest.approx(1.0)
    assert res.q[-1, 0] == pytest.approx(np.cosh(1.0), rel=1e-9)
    assert res.q[-1, 0] == pytest.approx(1.5430806, abs=5e-7)


def test_instability_roundoff_seeds_decaying_branch():
    # data on the decaying branch: rounding still excites e^{+lambda t}
    for lam in (0.5, 1.0, 2.0):
        res = finite_time_instability([lam], [1.0], [-lam], 40.0 / lam)
        assert abs(res.fitted_rates[0] - lam) / lam <= 0.01


def test_instability_eigenframe_exception_documented():
    # in exact eigencoordinates with a power-of-two rate the floating-point
    # update is exactly antisymmetric and the stable branch survives; this
    # guards the documented behavior of the generic_frame switch
    res = finite_time_instability([1.0], [1.0], [-1.0], 40.0, generic_frame=False)
    assert res.fitted_rates[0] < 0.0


@pytest.mark.parametrize("theta", [0.6, 0.0])
def test_instability_rhs_matches_array_formula_bit_for_bit(theta):
    lams = np.array([0.3, 1.0, 2.9])
    ct, st = np.cos(theta), np.sin(theta)

    def array_rhs(z):
        zq, zv = z[:3], z[3:]
        q = ct * zq + st * zv
        v = -st * zq + ct * zv
        dq, dv = v, lams**2 * q
        return np.concatenate([ct * dq - st * dv, st * dq + ct * dv])

    rhs = _rotated_modes_rhs(lams, theta)
    rng = np.random.default_rng(0)
    states = rng.standard_normal((500, 6)) * 10.0 ** rng.integers(-30, 30, (500, 1))
    for z in states:
        assert np.array_equal(rhs(0.0, z), array_rhs(z))


def test_instability_rejects_bad_rates():
    with pytest.raises(ValueError):
        finite_time_instability([0.0], [1.0], [0.0], 1.0)
