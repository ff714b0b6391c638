"""Output checks of the benchmark's operations.

Each check either recomputes a quantity apart from the program (closed-form
Gaussian-vortex invariants on a uniform grid of its own, a null-space least
squares solve, central differences, a least-squares rate fit) or tests a
property the method must have (mirror symmetry, exact conservation up to
the integrator tolerance).  None compares against a stored copy of an
earlier output, so exact-invariant or solver changes that keep the method
correct keep passing.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# mirror symmetry of the leapfrog configuration: holds to ~5e-14 in
# practice, exact in exact arithmetic
MIRROR_TOL = 1e-9
# own quadrature of the Gaussian-vortex invariants against the program's
INVARIANT_MATCH_TOL = 1e-8
# invariant drift along the trajectory: the constraints hold the velocity
# tangent to the level sets, so the drift is integration error (1.4e-6 at
# rtol 1e-7 over the leapfrog run)
DRIFT_TOL = 1e-5
NLSE_DRIFT_TOL = 1e-6
ADVDIFF_TOL = 1e-6
RATE_TOL = 0.01
FIT_TOL = 1e-8
GALERKIN_M_TOL = 1e-12
GALERKIN_RHS_TOL = 1e-8
# reduced_rhs against an independent constrained least-squares solve,
# relative to |qdot|; cond(M) <= ~1e5 on the sampled states
QDOT_TOL = 1e-9
# central differences of I_k against the constraint gradients, relative to
# the largest entry of each gradient
FD_TOL = 1e-6


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return header, data


def columns(header, data, *names) -> list[np.ndarray]:
    return [data[:, header.index(n)] for n in names]


def read_summary(run_dir) -> dict:
    with open(Path(run_dir) / "summary.json") as fh:
        return json.load(fh)


def _fail_if(cond, message, failures):
    if cond:
        failures.append(message)


# ---------------------------------------------------------------------------
# leapfrog
# ---------------------------------------------------------------------------


def mirror_gap(states: np.ndarray) -> float:
    """Largest break of the y -> -y mirror symmetry: vortex 2 mirrors vortex
    1 and vortex 4 mirrors vortex 3, with opposite amplitude."""
    v = states.reshape(len(states), -1, 4)   # (A, L, x, y) per vortex
    gaps = []
    for a, b in ((0, 1), (2, 3)):
        gaps += [
            np.abs(v[:, a, 0] + v[:, b, 0]),
            np.abs(v[:, a, 1] - v[:, b, 1]),
            np.abs(v[:, a, 2] - v[:, b, 2]),
            np.abs(v[:, a, 3] + v[:, b, 3]),
        ]
    return float(np.max(gaps))


def front_back_swaps(xa: np.ndarray, xb: np.ndarray) -> int:
    """How often two vortices exchange the lead along x."""
    ahead = xa > xb
    return int(np.count_nonzero(ahead[1:] != ahead[:-1]))


def gaussian_vortex_invariants(q, pad: float = 8.0, per_length: int = 8):
    """Kinetic energy 1/2 int |u|^2 and enstrophy 1/2 int omega^2 of
    psi = sum_i A_i exp(-r_i^2 / L_i^2), from closed-form velocity and
    vorticity on a uniform grid (trapezoid rule, spectrally accurate for
    fields that vanish at the box edge).
    """
    A, L, xc, yc = np.asarray(q, dtype=float).reshape(-1, 4).T
    h = L.min() / per_length
    lo = np.array([xc.min(), yc.min()]) - pad * L.max()
    hi = np.array([xc.max(), yc.max()]) + pad * L.max()
    x = np.arange(lo[0], hi[0] + h, h)
    y = np.arange(lo[1], hi[1] + h, h)
    X, Y = np.meshgrid(x, y, indexing="ij")
    u = np.zeros_like(X)
    v = np.zeros_like(X)
    omega = np.zeros_like(X)
    for Ai, Li, xi, yi in zip(A, L, xc, yc):
        dx, dy = X - xi, Y - yi
        r2 = (dx**2 + dy**2) / Li**2
        g = Ai * np.exp(-r2)
        # u = psi_y, v = -psi_x, omega = -lap psi
        u += -2.0 * dy / Li**2 * g
        v += 2.0 * dx / Li**2 * g
        omega += 4.0 / Li**2 * (1.0 - r2) * g
    area = h * h
    return 0.5 * area * float(np.sum(u**2 + v**2)), 0.5 * area * float(np.sum(omega**2))


def check_leapfrog_trajectory(header, data) -> list[str]:
    failures = []
    n = sum(1 for h in header if h.startswith("q"))
    states = data[:, 1 : 1 + n]
    I1, I2 = columns(header, data, "I1", "I2")

    gap = mirror_gap(states)
    _fail_if(gap > MIRROR_TOL, f"mirror symmetry broken by {gap:.3e}", failures)

    # vortices 1 and 3 form the positive pair, 2 and 4 the negative one
    for label, a, b in (("positive", 0, 2), ("negative", 1, 3)):
        swaps = front_back_swaps(states[:, 4 * a + 2], states[:, 4 * b + 2])
        _fail_if(swaps < 2, f"{label} pair made {swaps} front/back swaps", failures)

    own = np.array([gaussian_vortex_invariants(q) for q in states])
    for k, recorded in enumerate((I1, I2)):
        name = ("energy", "enstrophy")[k]
        ref = own[0, k]
        mismatch = abs(recorded[0] - ref) / abs(ref)
        _fail_if(
            mismatch > INVARIANT_MATCH_TOL,
            f"{name} at t=0: program {recorded[0]!r}, own {ref!r}",
            failures,
        )
        drift = float(np.max(np.abs(own[:, k] - ref)) / abs(ref))
        _fail_if(drift > DRIFT_TOL, f"{name} drifts by {drift:.3e}", failures)
    return failures


def check_leapfrog(run_dir) -> list[str]:
    if read_summary(run_dir)["status"] != "ok":
        return ["run status is not ok"]
    return check_leapfrog_trajectory(*read_csv(Path(run_dir) / "trajectory.csv"))


# ---------------------------------------------------------------------------
# catalog-1d
# ---------------------------------------------------------------------------


def wave_packet_mass(A, L):
    return np.sqrt(np.pi / 2.0) * A**2 * L


def wave_packet_energy(A, L, V):
    return np.sqrt(np.pi) * A**2 * (2.0 * np.sqrt(2.0) * (L**2 * V**2 + 1.0) - A**2 * L**2) / (8.0 * L)


def check_advdiff(run_dir, defaults) -> list[str]:
    header, data = read_csv(Path(run_dir) / "trajectory.csv")
    t, A = columns(header, data, "t", "q1")
    A0, L0, _ = defaults["q0"]
    err = float(np.max(np.abs(A - A0 * np.exp(-defaults["nu"] * t / L0**2))) / A0)
    return [f"amplitude off the exact decay by {err:.3e}"] if err > ADVDIFF_TOL else []


def check_nlse_invariants(header, data) -> list[str]:
    A, L, V = columns(header, data, "q1", "q2", "q3")
    failures = []
    for name, values in (("mass", wave_packet_mass(A, L)), ("energy", wave_packet_energy(A, L, V))):
        drift = float(np.max(np.abs(values - values[0])) / abs(values[0]))
        _fail_if(drift > NLSE_DRIFT_TOL, f"{name} drifts by {drift:.3e}", failures)
    return failures


def check_focusing(header, data, dns_header, dns_data) -> list[str]:
    t, A = columns(header, data, "t", "q1")
    t_dns, amp_dns = columns(dns_header, dns_data, "t", "amp")
    failures = []
    amplification = float(A.max() / A[0])
    _fail_if(amplification < 2.0, f"amplification {amplification:.3f} < 2", failures)
    t_peak, t_peak_dns = t[np.argmax(A)], t_dns[np.argmax(amp_dns)]
    gap = abs(t_peak - t_peak_dns) / t_peak_dns
    _fail_if(gap > 0.25, f"peak time {t_peak:.3f} vs spectral {t_peak_dns:.3f}", failures)
    return failures


def check_nlse(run_dir, defaults, focusing: bool) -> list[str]:
    header, data = read_csv(Path(run_dir) / "trajectory.csv")
    failures = check_nlse_invariants(header, data) if defaults["constrained"] else []
    if focusing:
        failures += check_focusing(
            header, data, *read_csv(Path(run_dir) / "series_dns_center.csv")
        )
    return failures


def growth_rate(t, q) -> float:
    """Least-squares slope of log|q| over the second half of the record."""
    half = len(t) // 2
    return float(np.polyfit(t[half:], np.log(np.abs(q[half:])), 1)[0])


def check_instability(run_dir, defaults) -> list[str]:
    header, data = read_csv(Path(run_dir) / "trajectory.csv")
    lam_col, t, q = columns(header, data, "lambda", "t", "q")
    decay = read_summary(run_dir)["metrics"]["fitted_reduced_decay_rates"]
    failures = []
    for lam, rate_down in zip(defaults["lambdas"], decay):
        rows = lam_col == lam
        rate_up = growth_rate(t[rows], q[rows])
        for rate, sign in ((rate_up, 1.0), (rate_down, -1.0)):
            _fail_if(
                abs(rate - sign * lam) > RATE_TOL * lam,
                f"lambda {lam}: fitted rate {rate:.6f}, expected {sign * lam}",
                failures,
            )
    return failures


def check_fit_demo(run_dir, defaults) -> list[str]:
    q_fit = np.asarray(read_summary(run_dir)["metrics"]["q_fit"])
    q_true = np.asarray(defaults["q0"])
    err = float(np.max(np.abs(q_fit - q_true) / np.abs(q_true)))
    return [f"fit misses q_true by {err:.3e}"] if err > FIT_TOL else []


def check_galerkin(run_dir, defaults) -> list[str]:
    header, data = read_csv(Path(run_dir) / "trajectory.csv")
    dev, m_dev = columns(header, data, "rhs_deviation", "M_identity_deviation")
    failures = []
    _fail_if(len(dev) != defaults["n_states"], f"{len(dev)} states recorded", failures)
    _fail_if(m_dev.max() > GALERKIN_M_TOL, f"M - I reaches {m_dev.max():.3e}", failures)
    _fail_if(dev.max() > GALERKIN_RHS_TOL, f"rhs deviation {dev.max():.3e}", failures)
    return failures


def check_catalog_run(name, run_dir, defaults) -> list[str]:
    if read_summary(run_dir)["status"] != "ok":
        return ["run status is not ok"]
    if name == "advdiff-exact":
        return check_advdiff(run_dir, defaults)
    if name.startswith("nlse-"):
        return check_nlse(run_dir, defaults, focusing=defaults["q0"][2] < 0)
    if name == "appendixA-instability":
        return check_instability(run_dir, defaults)
    if name == "fit-demo":
        return check_fit_demo(run_dir, defaults)
    if name == "galerkin-equivalence":
        return check_galerkin(run_dir, defaults)
    raise ValueError(f"no check for {name}")


# ---------------------------------------------------------------------------
# rhs-sweep
# ---------------------------------------------------------------------------


def constrained_lstsq(tangents, F, weights, B) -> np.ndarray:
    """argmin || sqrt(w) (T^T qdot - F) || subject to B^T qdot = 0, by a
    null-space basis of B^T from the SVD and a least-squares solve; complex
    fields are split into real and imaginary rows."""
    sw = np.sqrt(weights)
    A = (tangents * sw).T
    b = sw * F
    if np.iscomplexobj(A) or np.iscomplexobj(b):
        A = np.vstack([A.real, A.imag])
        b = np.concatenate([b.real, b.imag])
    n = A.shape[1]
    N = np.eye(n)
    if B is not None and B.shape[1]:
        _, _, vt = np.linalg.svd(B.T)
        N = vt[B.shape[1]:].T
    z, *_ = np.linalg.lstsq(A @ N, b, rcond=None)
    return N @ z


def qdot_mismatch(qdot, evaluation, weights, B) -> float:
    ref = constrained_lstsq(evaluation.tangents, evaluation.F, weights, B)
    return float(np.linalg.norm(np.asarray(qdot) - ref) / np.linalg.norm(ref))


def check_qdot(qdot, evaluation, weights, B) -> list[str]:
    gap = qdot_mismatch(qdot, evaluation, weights, B)
    return [f"qdot off the constrained least squares by {gap:.3e}"] if gap > QDOT_TOL else []


def fd_gradient(value, q, steps) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    grad = np.empty(len(q))
    for i, h in enumerate(steps):
        e = np.zeros(len(q))
        e[i] = h
        grad[i] = (value(q + e) - value(q - e)) / (2.0 * h)
    return grad


def check_gradients(family, q, rule, quantities, B) -> list[str]:
    """Columns of B against central differences of each quantity's value,
    with the quadrature rule held fixed as in the gradient itself."""
    steps = 1e-5 * np.maximum(1.0, np.abs(q))
    failures = []
    for k, qt in enumerate(quantities):
        fd = fd_gradient(lambda p: qt.value(family, p, rule), q, steps)
        scale = np.max(np.abs(B[:, k]))
        gap = float(np.max(np.abs(fd - B[:, k])) / scale)
        _fail_if(gap > FD_TOL, f"gradient of {qt.name} off central differences by {gap:.3e}", failures)
    return failures
