"""Independent reference solutions used to validate the reduced dynamics.

* exact closed-form solution of the linear advection-diffusion problem,
* a Fourier pseudospectral solver for the cubic Schroedinger equation with
  fourth-order exponential time differencing (ETDRK4),
* Hamiltonian point-vortex dynamics for the 2D inviscid comparisons,
* the exact Euler velocity of vortex-core vorticity centroids at one
  instant, from the full right-hand side of the vorticity equation,
* the classical Galerkin projection for linear mode sets, and
* the second-order boundary-value pathology of minimizing time-accumulated
  residual error, whose normal modes satisfy qddot = lambda^2 q and grow
  exponentially even from decaying initial data once round-off seeds the
  growing branch.

The time-dependent oracles return plain arrays: `nlse_dns` gives the times
and a (T, n) complex array of fields, `point_vortex` the times and a
(T, N, 2) array of centers.  `SpectralState` and `PointVortexState` are the
validated initial states they start from (and the last finite state a
`BlowupError` carries).

Everything here is deliberately independent of the engine module so that
agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import LinearModes
from .errors import BlowupError, CollisionError
from .hilbert import QuadratureRule, inner_product
from .integrate import solve_adaptive_rk45
from .models import PdeModel

__all__ = [
    "exact_advdiff",
    "SpectralState",
    "spectral_grid",
    "nlse_dns",
    "dns_steps",
    "PointVortexState",
    "point_vortex_hamiltonian",
    "point_vortex",
    "core_centroid_velocities",
    "galerkin_rhs",
    "InstabilityResult",
    "finite_time_instability",
    "fit_growth_rate",
]


def exact_advdiff(A0: float, L0: float, c: float, nu: float, x, t: float):
    """Exact decaying traveling wave A0 e^{-nu t / L0^2} sin((x - c t)/L0)."""
    if L0 <= 0:
        raise ValueError("L0 must be positive")
    x = np.asarray(x, dtype=float)
    return A0 * np.exp(-nu * t / L0**2) * np.sin((x - c * t) / L0)


# ---------------------------------------------------------------------------
# pseudospectral cubic Schroedinger solver, ETDRK4 time stepping
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Complex field on an equispaced periodic grid at one time."""

    length: float
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        n = len(self.values)
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size {n} must be a power of two >= 16")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def dx(self) -> float:
        return self.length / len(self.values)


def spectral_grid(length: float, n_modes: int) -> np.ndarray:
    return -length / 2 + np.arange(n_modes) * (length / n_modes)


def _etdrk4_tables(lin: np.ndarray, dt: float, n_contour: int = 32):
    """Coefficient tables for ETDRK4.

    The phi-function combinations are evaluated as means over a unit circle
    of contour points centered at each h*lambda, which sidesteps the severe
    cancellation of the direct formulas near lambda = 0.
    """
    z = dt * lin
    E = np.exp(z)
    E2 = np.exp(z / 2.0)
    theta = 2.0 * np.pi * (np.arange(n_contour) + 0.5) / n_contour
    r = np.exp(1j * theta)
    zr = z[:, None] + r[None, :]
    Q = dt * np.mean((np.exp(zr / 2.0) - 1.0) / zr, axis=1)
    f1 = dt * np.mean(
        (-4.0 - zr + np.exp(zr) * (4.0 - 3.0 * zr + zr**2)) / zr**3, axis=1
    )
    f2 = dt * np.mean((2.0 + zr + np.exp(zr) * (-2.0 + zr)) / zr**3, axis=1)
    f3 = dt * np.mean(
        (-4.0 - 3.0 * zr - zr**2 + np.exp(zr) * (4.0 - zr)) / zr**3, axis=1
    )
    return E, E2, Q, f1, f2, f3


def dns_steps(t_end: float, dt: float) -> int:
    """The number of DNS steps of dt from 0 to t_end.  Raises ValueError
    unless t_end / dt is a whole number to 1e-9 relative: a reference that
    stopped short of t_end would be compared at the wrong time."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ratio = t_end / dt
    n = round(ratio)
    if abs(ratio - n) > 1e-9 * abs(ratio):
        raise ValueError(f"the DNS step dns_dt = {dt} must divide t_end = {t_end}")
    return n


def nlse_dns(
    u0: SpectralState, dt: float, t_end: float
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve u_t = i u_xx + i |u|^2 u from u0 with ETDRK4.

    The linear part is treated exactly in Fourier space; the cubic term is
    the nonlinearity.  Takes `dns_steps(t_end, dt)` steps of dt and returns
    (times, fields): the field at every step as the rows of a (T, n)
    complex array, initial field first and final field last.  Raises
    BlowupError with the last finite state if the field stops being finite.
    """
    # scipy.fft runs the same pocketfft transforms as numpy.fft, with less
    # overhead per call; imported here because importing it at module level
    # adds 60-100 ms to `import rons`
    from scipy.fft import fft, ifft

    n_steps = dns_steps(t_end, dt)
    n = len(u0.values)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=u0.dx)
    lin = -1j * k**2
    E, E2, Q, f1, f2, f3 = _etdrk4_tables(lin, dt)
    # the nonlinearity is i times `cubic`; the factor i, and the 2 that
    # weights f2, go into the tables once
    Q, f1, f2, f3 = 1j * Q, 1j * f1, 2j * f2, 1j * f3

    def cubic(u):
        return fft(np.abs(u) ** 2 * u)

    times = np.empty(n_steps + 1)
    fields = np.empty((n_steps + 1, n), dtype=complex)
    times[0], fields[0] = u0.time, u0.values
    v = fft(u0.values)
    u = ifft(v)
    # eight transforms per step: the field u = ifft(v) that a step starts
    # from is the one the previous step ended with
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            Nv = cubic(u)
            E2v = E2 * v
            a = E2v + Q * Nv
            Na = cubic(ifft(a))
            b = E2v + Q * Na
            Nb = cubic(ifft(b))
            c = E2 * a + Q * (2.0 * Nb - Nv)
            Nc = cubic(ifft(c))
            v = E * v + f1 * Nv + f2 * (Na + Nb) + f3 * Nc
            t = u0.time + step * dt
            u = ifft(v)
            if not np.all(np.isfinite(u)):
                raise BlowupError(
                    f"spectral solution lost finiteness at t = {t:.6g}",
                    last_state=SpectralState(u0.length, fields[step - 1], times[step - 1]),
                )
            times[step], fields[step] = t, u
    return times, fields


# ---------------------------------------------------------------------------
# point-vortex dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointVortexState:
    """N point vortices: strengths Gamma_i and centers x_i at t = 0."""

    strengths: np.ndarray
    centers: np.ndarray     # (N, 2)

    def __post_init__(self):
        object.__setattr__(
            self, "strengths", np.asarray(self.strengths, dtype=float)
        )
        object.__setattr__(
            self, "centers", np.asarray(self.centers, dtype=float).reshape(-1, 2)
        )
        if len(self.strengths) != len(self.centers):
            raise ValueError("one strength per center required")
        if len(np.unique(self.centers, axis=0)) < len(self.centers):
            raise ValueError("vortex centers must be distinct")


def point_vortex_hamiltonian(strengths, centers) -> float:
    """H = -sum_{i != j} Gamma_i Gamma_j log|x_i - x_j| / (4 pi) of the
    strengths Gamma_i and the (N, 2) centers x_i."""
    g, x = np.asarray(strengths, dtype=float), np.asarray(centers, dtype=float)
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    np.fill_diagonal(dist, 1.0)
    logd = np.log(dist)
    np.fill_diagonal(logd, 0.0)
    return float(-np.sum(np.outer(g, g) * logd) / (4.0 * np.pi))


def _pv_rhs(strengths: np.ndarray, flat: np.ndarray, min_separation: float) -> np.ndarray:
    centers = flat.reshape(-1, 2)
    diff = centers[:, None, :] - centers[None, :, :]       # x_i - x_j
    r2 = np.sum(diff**2, axis=2)
    np.fill_diagonal(r2, np.inf)
    if np.sqrt(r2.min()) < min_separation:
        raise CollisionError(
            f"vortex centers closer than {min_separation}; the "
            "Hamiltonian is singular at coincidence"
        )
    coef = strengths[None, :] / (2.0 * np.pi * r2)          # Gamma_j / (2 pi r^2)
    vx = -np.sum(coef * diff[:, :, 1], axis=1)
    vy = np.sum(coef * diff[:, :, 0], axis=1)
    return np.column_stack([vx, vy]).ravel()


def point_vortex(
    state: PointVortexState,
    dt: float,
    t_end: float,
    *,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    min_separation: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the point-vortex equations, recording accepted steps.

    Returns (times, centers), the centers at each accepted step as a
    (T, N, 2) array.  `dt` caps the step size (and hence the output
    spacing).  Aborts with CollisionError if any two centers come within
    `min_separation`, where the logarithmic Hamiltonian is about to blow up.
    """
    times, ys, _ = solve_adaptive_rk45(
        lambda _t, y: _pv_rhs(state.strengths, y, min_separation),
        0.0,
        state.centers.ravel(),
        t_end,
        rtol=rtol,
        atol=atol,
        max_step=dt,
    )
    return times, ys.reshape(len(times), -1, 2)


# ---------------------------------------------------------------------------
# exact Euler velocity of vortex-core centroids
# ---------------------------------------------------------------------------


def core_centroid_velocities(
    rule: QuadratureRule, omega, F, centers, signs
) -> tuple[np.ndarray, np.ndarray]:
    """Centroids X_i of the vortex cores and their exact velocities V_i.

    Core i is R_i = {sgn_i omega > 0} intersected with the nearest-center
    cell of centers[i] (for two vortices: vortex i's side of the
    perpendicular bisector).  With omega_t = F,

        X_i = int_R x omega / int_R omega,
        V_i = (int_R x F - X_i int_R F) / int_R omega

    is dX_i/dt of the full PDE at this instant: the cell walls are held
    fixed and omega = 0 on the moving part of the boundary of R_i, so no
    boundary flux enters.  Kirchhoff point vortices are the small-core,
    well-separated limit of this quantity.  Returns (X, V), each (N, 2).
    A core that holds no node of the rule has no circulation to divide by:
    its X_i and V_i are NaN.
    """
    pts, w = rule.nodes, rule.weights
    omega, F = np.asarray(omega, dtype=float), np.asarray(F, dtype=float)
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    dist2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    owner = np.argmin(dist2, axis=1)
    X, V = np.empty_like(centers), np.empty_like(centers)
    for i, sgn in enumerate(signs):
        wi = w * ((owner == i) & (sgn * omega > 0))
        gamma = np.sum(wi * omega)
        if gamma == 0:
            X[i] = V[i] = np.nan
            continue
        X[i] = (wi * omega) @ pts / gamma
        V[i] = ((wi * F) @ pts - X[i] * np.sum(wi * F)) / gamma
    return X, V


# ---------------------------------------------------------------------------
# Galerkin projection for linear mode sets
# ---------------------------------------------------------------------------


# largest Gram-matrix deviation from the identity that `galerkin_rhs`
# accepts as orthonormal on the rule
_ORTHONORMAL_TOL = 1e-8


def galerkin_rhs(
    family: LinearModes,
    q,
    model: PdeModel,
    rule: QuadratureRule,
) -> np.ndarray:
    """qdot_k = <u_k, F(u)> for an orthonormal mode set.

    This is the textbook projection route, computed without the metric
    tensor; the engine's reduced equations must coincide with it on linear
    families.
    """
    q = np.asarray(q, dtype=float)
    mode_fields = [m.value(rule.nodes) for m in family.modes]
    n = len(mode_fields)
    gram = np.array(
        [[inner_product(mi, mj, rule) for mj in mode_fields] for mi in mode_fields]
    )
    if np.max(np.abs(gram - np.eye(n))) > _ORTHONORMAL_TOL:
        raise ValueError(
            "modes are not orthonormal on this rule "
            f"(max Gram deviation {np.max(np.abs(gram - np.eye(n))):.2e})"
        )
    F = model.apply_F(family, q, rule)
    return np.array([inner_product(m, F, rule) for m in mode_fields])


# ---------------------------------------------------------------------------
# instability of the time-accumulated error formulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InstabilityResult:
    """Time series and fitted exponential rates of qddot = lambda^2 q."""

    rates: np.ndarray
    times: np.ndarray
    q: np.ndarray          # (steps, n_modes)
    fitted_rates: np.ndarray


def fit_growth_rate(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log|values| over the final half of the record."""
    lo = len(times) // 2
    t, v = times[lo:], np.abs(values[lo:])
    good = v > 0
    if good.sum() < 2:
        return np.nan
    return float(np.polyfit(t[good], np.log(v[good]), 1)[0])


def _rotated_modes_rhs(lams: np.ndarray, theta: float):
    """Right-hand side f(t, z) of qddot_k = lambda_k^2 q_k in phase planes
    rotated by theta: z = (zq, zv) with [zq_k, zv_k] = R [q_k, qdot_k].

    Float arithmetic over the modes, with the products and sums of the
    array formula in its order, so a call costs no array operation.
    """
    nm = len(lams)
    c, s = float(np.cos(theta)), float(np.sin(theta))
    lam2 = (lams**2).tolist()

    def rhs(_t, z):
        # z' = R B R^T z per mode, B = [[0, 1], [lambda^2, 0]]
        zs = z.tolist()
        out_q, out_v = [], []
        for zq, zv, l2 in zip(zs[:nm], zs[nm:], lam2):
            dq, dv = -s * zq + c * zv, l2 * (c * zq + s * zv)
            out_q.append(c * dq - s * dv)
            out_v.append(s * dq + c * dv)
        return np.array(out_q + out_v)

    return rhs


def finite_time_instability(
    lams,
    q0,
    qdot0,
    t_end: float,
    *,
    generic_frame: bool = True,
) -> InstabilityResult:
    """Integrate the decoupled modes qddot_k = lambda_k^2 q_k.

    These are the Euler-Lagrange equations of the accumulated-error action
    for a self-adjoint dissipative operator with eigenvalues -lambda_k; each
    mode mixes e^{+lambda t} and e^{-lambda t}, so even the decaying branch
    is numerically unstable: rounding excites the growing solution.  The
    modes are integrated at rtol 1e-10, atol 1e-14, and growth rates are
    fitted on the final half of the run.

    With generic_frame=True (default) each mode's phase plane is rotated by
    a fixed angle before integrating, which is how the system presents
    itself in any real discretization whose eigenvectors are not exactly
    representable.  In unrotated eigencoordinates with power-of-two rates
    the floating-point update happens to be exactly antisymmetric, so a
    trajectory started on the stable branch never leaves it; that is a
    measure-zero nicety of binary arithmetic, not stability of the scheme.
    """
    lams = np.asarray(lams, dtype=float)
    if np.any(lams <= 0):
        raise ValueError("rates lambda_k must be positive")
    q0 = np.broadcast_to(np.asarray(q0, dtype=float), lams.shape).copy()
    qdot0 = np.broadcast_to(np.asarray(qdot0, dtype=float), lams.shape).copy()
    nm = len(lams)

    theta = 0.6 if generic_frame else 0.0
    ct, st = np.cos(theta), np.sin(theta)
    z0 = np.concatenate([ct * q0 - st * qdot0, st * q0 + ct * qdot0])
    times, zs, _ = solve_adaptive_rk45(
        _rotated_modes_rhs(lams, theta), 0.0, z0, t_end, rtol=1e-10, atol=1e-14
    )
    qs = ct * zs[:, :nm] + st * zs[:, nm:]
    fitted = np.array([fit_growth_rate(times, qs[:, j]) for j in range(nm)])
    return InstabilityResult(rates=lams, times=times, q=qs, fitted_rates=fitted)
