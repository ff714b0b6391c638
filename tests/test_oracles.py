import tracemalloc

import numpy as np
import pytest

from rons.ansatz import GaussianWavePacket, LinearModes, fourier_modes
from rons.engine import assemble, reduced_rhs
from rons.errors import CollisionError
from rons.hilbert import make_rule, periodic_interval
from rons.models import advection_diffusion
from rons.oracles import (
    PointVortexState,
    SpectralState,
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
    times, centre, last = nlse_dns(u0, 0.025, 1.0)
    assert times.shape == centre.shape == (41,) and last.shape == (64,)
    assert times[-1] == pytest.approx(1.0)
    assert np.max(np.abs(centre)) == 0.0 and np.max(np.abs(last)) == 0.0


def test_dns_steps_must_end_at_t_end():
    u0 = SpectralState(LENGTH, np.zeros(64, dtype=complex))
    for dt in (0.3, 0.4):                # 3 and 2 whole steps would stop short
        with pytest.raises(ValueError):
            nlse_dns(u0, dt, 1.0)
    # 0.3 / 0.025 is 11.999999999999998 in floating point: twelve steps
    times, _, _ = nlse_dns(u0, 0.025, 0.3)
    assert len(times) == 13 and times[-1] == pytest.approx(0.3)


def test_dns_plane_wave_exact():
    n = 512
    x = spectral_grid(LENGTH, n)
    k = 2 * np.pi * 8 / LENGTH
    a = 0.1
    u0 = SpectralState(LENGTH, a * np.exp(1j * k * x))
    _, _, last = nlse_dns(u0, 0.001, 1.0)
    exact = a * np.exp(1j * k * x) * np.exp(1j * (a**2 - k**2) * 1.0)
    assert np.max(np.abs(last - exact)) <= 1e-8


def test_dns_mass_conserved_long_run():
    fam = GaussianWavePacket()
    x = spectral_grid(LENGTH, 512)
    state = SpectralState(LENGTH, fam.evaluate(x, np.array([0.2, 5.0, 0.0, 0.0])))
    mass0 = np.sum(np.abs(state.values) ** 2) * state.dx
    # forty one-time-unit runs, each from the last field of the one before
    for _ in range(40):
        times, _, last = nlse_dns(state, 0.025, 1.0)
        assert times[-1] == pytest.approx(1.0)
        state = SpectralState(LENGTH, last)
        mass = np.sum(np.abs(last) ** 2) * state.dx
        assert abs(mass - mass0) / mass0 <= 1e-8


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
        _, centre, _ = nlse_dns(SpectralState(LENGTH, fam.evaluate(x, q0)), dt, t_end)
        return np.max(np.abs(centre))   # x = 0

    base = peak(512, 0.025)
    assert abs(peak(1024, 0.025) - base) < 1e-5
    assert abs(peak(512, 0.0125) - base) < 1e-5


def _etdrk4_tables(lin, dt, n_contour=32):
    """ETDRK4 coefficient tables (Cox & Matthews; Kassam & Trefethen): the
    phi-function combinations as means over a circle of contour points
    around each h*lambda, which avoids their cancellation near lambda = 0."""
    z = dt * lin
    r = np.exp(2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
    zr = z[:, None] + r[None, :]
    Q = dt * np.mean((np.exp(zr / 2.0) - 1.0) / zr, axis=1)
    f1 = dt * np.mean((-4.0 - zr + np.exp(zr) * (4.0 - 3.0 * zr + zr**2)) / zr**3, axis=1)
    f2 = dt * np.mean((2.0 + zr + np.exp(zr) * (-2.0 + zr)) / zr**3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * zr - zr**2 + np.exp(zr) * (4.0 - zr)) / zr**3, axis=1)
    return np.exp(z), np.exp(z / 2.0), Q, f1, f2, f3


def _etdrk4_dns(u0, dt, t_end):
    """Fourth-order exponential time differencing of the same equation, an
    independent reference: the centre value at every step and the last field."""
    fft, ifft = np.fft.fft, np.fft.ifft
    n = len(u0.values)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=u0.dx)
    E, E2, Q, f1, f2, f3 = _etdrk4_tables(-1j * k**2, dt)

    def nonlin(u):
        return 1j * fft(np.abs(u) ** 2 * u)

    n_steps = int(round(t_end / dt))
    centre = np.empty(n_steps + 1, dtype=complex)
    centre[0] = u0.values[n // 2]
    v, u = fft(u0.values), u0.values
    for step in range(1, n_steps + 1):
        Nv = nonlin(u)
        a = E2 * v + Q * Nv
        Na = nonlin(ifft(a))
        b = E2 * v + Q * Na
        Nb = nonlin(ifft(b))
        c = E2 * a + Q * (2.0 * Nb - Nv)
        Nc = nonlin(ifft(c))
        v = E * v + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * Nc
        u = ifft(v)
        centre[step] = u[n // 2]
    return centre, u


FOCUSING_Q0 = np.array([0.2, 20.0, -0.05, 0.0])


ETDRK4_DT = 0.0125


@pytest.fixture(scope="module")
def focusing_etdrk4():
    """The focusing packet through its peak, t in [0, 60], by ETDRK4 at
    dt = ETDRK4_DT, within 2e-12 of the peak of ETDRK4 at 0.025 / 16: far
    below the split-step errors the tests compare (1e-6 at dt = 0.0125)."""
    x = spectral_grid(LENGTH, 512)
    u0 = SpectralState(LENGTH, GaussianWavePacket().evaluate(x, FOCUSING_Q0))
    return u0, _etdrk4_dns(u0, ETDRK4_DT, 60.0)


def _error_against(reference, dt):
    """Largest errors of the centre series and of the last field of the
    split-step run at dt (a multiple of the reference step), relative to the
    largest reference value."""
    u0, (ref_centre, ref_last) = reference
    _, centre, last = nlse_dns(u0, dt, 60.0)
    stride = round(dt / ETDRK4_DT)
    scale = np.max(np.abs(ref_centre))
    assert centre.shape == ref_centre[::stride].shape
    return (np.max(np.abs(centre - ref_centre[::stride])) / scale,
            np.max(np.abs(last - ref_last)) / scale)


def test_dns_matches_etdrk4_at_half_the_step(focusing_etdrk4):
    # measured: 3.9e-6 for the centre series
    centre_error, last_error = _error_against(focusing_etdrk4, 0.025)
    assert centre_error <= 1e-5
    assert last_error <= 1e-5


def test_dns_is_second_order_in_dt(focusing_etdrk4):
    # halving dt divides the error by 4.000 here
    ratio = _error_against(focusing_etdrk4, 0.025)[0] / _error_against(focusing_etdrk4, 0.0125)[0]
    assert 3.9 <= ratio <= 4.1


def test_dns_memory_does_not_grow_with_the_step_count():
    # the default focusing reference, 2401 records of 512 modes: keeping
    # every field would take 19.7 MB
    x = spectral_grid(LENGTH, 512)
    u0 = SpectralState(LENGTH, GaussianWavePacket().evaluate(x, FOCUSING_Q0))
    nlse_dns(u0, 0.025, 0.05)            # numpy.fft's plan cache stays out of the trace
    tracemalloc.start()
    try:
        times, _, _ = nlse_dns(u0, 0.025, 60.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(times) == 2401
    assert peak < 2_000_000


def test_dns_stays_finite_at_a_large_step():
    # both substeps are unitary: a step of 5.0, far beyond accuracy, keeps
    # the field finite and its mass to rounding
    x = spectral_grid(LENGTH, 512)
    u0 = SpectralState(LENGTH, 5.0 * np.exp(-(x**2) / 25.0) + 0j)
    _, centre, last = nlse_dns(u0, 5.0, 100.0)
    assert np.all(np.isfinite(centre)) and np.all(np.isfinite(last))
    mass0 = np.sum(np.abs(u0.values) ** 2)
    assert abs(np.sum(np.abs(last) ** 2) - mass0) <= 1e-12 * mass0


def test_spectral_state_validation():
    with pytest.raises(ValueError):
        SpectralState(10.0, np.zeros(12, dtype=complex))  # not a power of two
    with pytest.raises(ValueError):
        SpectralState(10.0, np.full(32, np.nan, dtype=complex))
    with pytest.raises(ValueError):
        SpectralState(10.0, np.full(32, 1e200, dtype=complex))  # mass overflows


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
