"""Named experiment reproductions with machine-readable outputs.

Each registered experiment builds its ansatz, model and quadrature from a
flat JSON config, integrates the reduced dynamics, runs the matching
reference oracle, and writes into its output directory:

    config.json       resolved config snapshot (rerunnable verbatim)
    trajectory.csv    t, q1..qn, J, J_raw, I1, I2, cond_M, cond_C
    fields.csv        field snapshots at a few times
    series_*.csv      named time series used by `compare`
    summary.json      metrics + file manifest, schema-validated

Every CSV is a header row and one float table, each value at 17
significant digits, so reruns of the same config and version are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .ansatz import (
    GaussianWavePacket,
    HeatKernel,
    LinearModes,
    SineWave,
    VortexStreamFunction,
    fourier_modes,
)
from .engine import assemble, fit_initial, reduced_rhs
from .errors import IntegrationAbort, RonsError
from .hilbert import box_rule, make_rule, norm_sq, periodic_interval, real_line
from .integrate import IntegratorConfig, Trajectory, integrate
from .models import advection_diffusion, nlse, vorticity
from .oracles import (
    PointVortexState,
    SpectralState,
    core_centroid_velocities,
    dns_steps,
    exact_advdiff,
    finite_time_instability,
    galerkin_rhs,
    nlse_dns,
    point_vortex,
    spectral_grid,
)

__all__ = [
    "ExperimentSpec",
    "RunRecord",
    "EXPERIMENTS",
    "list_experiments",
    "resolve_config",
    "run",
    "compare",
    "output_root",
]


_CSV_BLOCK_ROWS = 1024


def _write_csv(path: Path, header: list[str], table) -> None:
    """The header as a csv row, then each row of the float table with every
    value at 17 significant digits ("%.17g"), CRLF line ends as csv.writer;
    the bytes of np.savetxt(fmt="%.17g", delimiter=",", newline="\r\n")."""
    table = np.asarray(table, dtype=float).reshape(-1, len(header))
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        # one small string per row, and Python floats for at most
        # _CSV_BLOCK_ROWS rows at a time: one string per block of rows (tens
        # of kB, from the C heap) raised catalog-1d's peak RSS by 10-17 MB in
        # most benchmark runs, and converting a whole table at once raised
        # leapfrog's (fields.csv is 20480 rows) by 6 MB
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS].tolist()
            fh.writelines(row % tuple(values) for values in block)


def _read_series(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return header, data


def _write_trajectory(path: Path, traj: Trajectory) -> None:
    n = traj.states.shape[1]
    header = (
        ["t"]
        + [f"q{i + 1}" for i in range(n)]
        + ["J", "J_raw", "I1", "I2", "cond_M", "cond_C"]
    )
    diag = traj.diagnostics
    inv = np.full((len(traj), 2), np.nan)           # I1, I2: the first two tracked
    if "invariants" in diag:
        tracked = diag["invariants"][:, :2]
        inv[:, : tracked.shape[1]] = tracked
    table = np.column_stack(
        [traj.times, traj.states, diag["J"], diag["J_raw"], inv, diag["cond_M"], diag["cond_C"]]
    )
    _write_csv(path, header, table)


def output_root() -> Path:
    return Path(os.environ.get("RONS_OUT_DIR", "rons-out"))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    description: str
    defaults: dict
    runner: Callable


@dataclass(frozen=True)
class RunRecord:
    """Everything one run produced, mirrored in summary.json."""

    config: dict
    out_dir: Path
    files: dict[str, str]
    series: dict[str, str]
    metrics: dict
    status: str
    wall_time_s: float
    abort_reason: str | None = None

    @property
    def summary_path(self) -> Path:
        return self.out_dir / "summary.json"


# the experiments that integrate the reduced dynamics and write snapshots
_INTEGRATION_DEFAULTS = {
    "scheme": "rk45",
    "dt": None,
    "rtol": 1e-8,
    "atol": 1e-10,
    "stride": 1,
    "snapshots": 5,
}


def _window_rule(family: VortexStreamFunction, q, pad: float, resolution: int):
    """Quadrature window around the vortex centers of state q.

    The box is the bounding box of the centers padded by `pad` times the
    largest length scale, with `resolution` Gauss-Legendre nodes per axis.
    The solve integrates exactly and needs no window; the t = 0
    core-centroid oracle and the `fields.csv` snapshots sample on one.
    """
    centers = family.centers(q)
    L = float(np.max(family.length_scales(q)))
    return box_rule(centers.min(axis=0) - pad * L, centers.max(axis=0) + pad * L, resolution)


def _integrator_config(config: dict) -> IntegratorConfig:
    return IntegratorConfig(
        t_end=config["t_end"],
        scheme=config["scheme"],
        dt=config["dt"],
        rtol=config["rtol"],
        atol=config["atol"],
        stride=config["stride"],
    )


def _uniform_series(traj: Trajectory, n: int):
    """n equispaced times over the run and the interpolated states there."""
    ts = np.linspace(traj.times[0], traj.times[-1], n)
    return ts, traj.interpolate(ts)


# -- advdiff-exact ----------------------------------------------------------


def _run_advdiff(config, out_dir, files, series):
    family = SineWave()
    model = advection_diffusion(config["c"], config["nu"])
    A0, L0, phi0 = config["q0"]
    rule = make_rule(periodic_interval(2 * np.pi * L0), config["resolution"])
    traj = integrate(
        family, model, rule, (), config["q0"], _integrator_config(config)
    )

    c_, nu = config["c"], config["nu"]
    A_ex = A0 * np.exp(-nu * traj.times / L0**2)
    phi_ex = phi0 - c_ * traj.times / L0
    metrics = {
        "max_rel_err_A": float(np.max(np.abs(traj.states[:, 0] - A_ex)) / A0),
        "max_rel_err_L": float(np.max(np.abs(traj.states[:, 1] - L0)) / L0),
        "max_rel_err_phi": float(
            np.max(np.abs(traj.states[:, 2] - phi_ex)) / max(abs(c_) * config["t_end"] / L0, 1.0)
        ),
        "max_abs_Ldot": float(np.max(np.abs(traj.qdots[:, 1]))),
        "max_J_over_Jraw": float(
            np.max(traj.diagnostics["J"] / np.maximum(traj.diagnostics["J_raw"], 1e-300))
        ),
        "max_cond_M": float(np.max(traj.diagnostics["cond_M"])),
    }

    ts, qs = _uniform_series(traj, 400)
    _write_csv(out_dir / "series_rons_amplitude.csv", ["t", "amplitude"], np.column_stack([ts, qs[:, 0]]))
    series["rons_amplitude"] = "series_rons_amplitude.csv"
    amp_ex = A0 * np.exp(-nu * ts / L0**2)
    _write_csv(out_dir / "series_exact_amplitude.csv", ["t", "amplitude"], np.column_stack([ts, amp_ex]))
    series["exact_amplitude"] = "series_exact_amplitude.csv"

    _write_trajectory(out_dir / "trajectory.csv", traj)
    files["trajectory"] = "trajectory.csv"

    fields = []
    for t, q in zip(*_uniform_series(traj, config["snapshots"])):
        u = family.evaluate(rule.nodes, q)
        u_exact = exact_advdiff(A0, L0, c_, nu, rule.nodes, t)
        fields.append(np.column_stack([np.full(len(rule), t), rule.nodes, u, u_exact]))
    fields = np.vstack(fields)
    _write_csv(out_dir / "fields.csv", ["t", "x", "u", "u_exact"], fields)
    files["fields"] = "fields.csv"
    metrics["max_field_err"] = float(np.max(np.abs(fields[:, 2] - fields[:, 3])))
    return metrics, {"model": "rons_amplitude", "reference": "exact_amplitude"}


# -- nlse family ------------------------------------------------------------


def _run_nlse(config, out_dir, files, series):
    family = GaussianWavePacket()
    model = nlse()
    rule = make_rule(real_line(config["half_width"]), config["resolution"])
    quantities = model.conserved if config["constrained"] else ()
    traj = integrate(
        family, model, rule, quantities, config["q0"], _integrator_config(config)
    )

    # reference: pseudospectral solution from the identical initial field
    length = config["dns_length"]
    x = spectral_grid(length, config["dns_modes"])
    u0 = SpectralState(length, family.evaluate(x, np.asarray(config["q0"])))
    dns_t, dns_u = nlse_dns(u0, config["dns_dt"], config["t_end"])
    # x = 0 lies on the grid for even n; abs of the Python complex, whose
    # rounding differs from np.abs in the last bit
    dns_amp = np.array([abs(complex(z)) for z in dns_u[:, len(x) // 2]])
    dns_mass = [float(np.sum(np.abs(u) ** 2) * u0.dx) for u in (dns_u[0], dns_u[-1])]

    ts, qs = _uniform_series(traj, 800)
    rons_amp = qs[:, 0]
    _write_csv(out_dir / "series_rons_center.csv", ["t", "amp"], np.column_stack([ts, rons_amp]))
    _write_csv(out_dir / "series_dns_center.csv", ["t", "amp"], np.column_stack([dns_t, dns_amp]))
    series["rons_center"] = "series_rons_center.csv"
    series["dns_center"] = "series_dns_center.csv"

    i_r, i_d = int(np.argmax(rons_amp)), int(np.argmax(dns_amp))
    drift = traj.invariant_drift()
    tangency = traj.diagnostics.get("tangency")
    metrics = {
        "rons_peak_amp": float(rons_amp[i_r]),
        "rons_peak_time": float(ts[i_r]),
        "dns_peak_amp": float(dns_amp[i_d]),
        "dns_peak_time": float(dns_t[i_d]),
        "peak_amp_gap_rel": float(
            (rons_amp[i_r] - dns_amp[i_d]) / dns_amp[i_d]
        ),
        "peak_time_gap_rel": float(
            abs(ts[i_r] - dns_t[i_d]) / max(dns_t[i_d], 1e-300)
        ),
        "amplification": float(rons_amp[i_r] / rons_amp[0]),
        "drift_I1": float(drift[0]),
        "drift_I2": float(drift[1]),
        "max_tangency": float(tangency.max()) if tangency is not None else np.nan,
        "dns_mass_drift": float(abs(dns_mass[1] - dns_mass[0]) / dns_mass[0]),
        "max_cond_M": float(np.max(traj.diagnostics["cond_M"])),
    }

    _write_trajectory(out_dir / "trajectory.csv", traj)
    files["trajectory"] = "trajectory.csv"

    fields = []
    for t, q in zip(*_uniform_series(traj, config["snapshots"])):
        u = family.evaluate(rule.nodes, q)
        fields.append(np.column_stack([np.full(len(rule), t), rule.nodes, u.real, u.imag]))
    _write_csv(out_dir / "fields.csv", ["t", "x", "re_u", "im_u"], np.vstack(fields))
    files["fields"] = "fields.csv"
    return metrics, {"model": "rons_center", "reference": "dns_center"}


# -- euler family -----------------------------------------------------------


def _vortex_circulations(family, q, evaluation):
    """Net and positive-core circulation of each vortex, by quadrature.

    Vortex i's own vorticity is A_i times the vorticity tangent along A_i.
    """
    w = evaluation.rule.weights
    net, core = [], []
    A = family.unpack(q)[0]
    for a, tangent in zip(A, family.unpack(evaluation.tangents.T)[0].T):
        omega = a * tangent
        net.append(float(np.sum(w * omega)))
        core.append(float(np.sum(w * omega * (np.sign(a) * omega > 0))))
    return np.array(net), np.array(core)


def _rel_gap(value, ref):
    """|value - ref| / |ref|, or NaN (null in summary.json) when `ref` is 0."""
    if ref == 0:
        return np.nan
    return float(abs(value - ref) / abs(ref))


def _run_euler(config, out_dir, files, series, n_vortices, metrics_of):
    """One euler run; `metrics_of(times, centers, pv, cores)` adds the
    experiment's own metrics to the shared ones, with pv = (strengths, times,
    centers) of the point-vortex reference and cores = (X, V) of the
    core-centroid oracle."""
    family = VortexStreamFunction(n_vortices)
    model = vorticity(config["nu"], exact=True)
    quantities = model.conserved if config["constrained"] else ()
    q0 = np.asarray(config["q0"], dtype=float)
    # the window around q0; the exact projection of the solve ignores the
    # rule it is handed
    rule0 = _window_rule(family, q0, config["window_pad"], config["resolution"])
    traj = integrate(family, model, rule0, quantities, q0, _integrator_config(config))

    # exact-Euler reference: velocities of the core vorticity centroids under
    # the full vorticity equation at t = 0, on the window
    ev0 = model.evaluation(family, q0, rule0)
    cores = core_centroid_velocities(
        rule0, ev0.field, ev0.F, family.centers(q0), np.sign(family.unpack(q0)[0])
    )

    # point-vortex reference, for information: circulations matched by
    # quadrature of each vortex's sign-definite core. The Gaussian stream
    # function makes each vortex shielded, so its net circulation integrates
    # to zero; `net_circulations` records that, and point vortices with those
    # strengths would not move.
    net, core = _vortex_circulations(family, q0, ev0)
    pv_t, pv_x = point_vortex(
        PointVortexState(core, family.centers(q0)), config["t_end"] / 400, config["t_end"]
    )

    _write_trajectory(out_dir / "trajectory.csv", traj)
    files["trajectory"] = "trajectory.csv"
    # vortex center paths: t, x1, y1, x2, y2, ...
    tracks = ["t"] + [f"{c}{i + 1}" for i in range(n_vortices) for c in "xy"]
    rons_x = family.centers(traj.states)
    _write_csv(out_dir / "series_rons_tracks.csv", tracks,
               np.column_stack([traj.times, rons_x.reshape(len(traj), -1)]))
    series["rons_tracks"] = "series_rons_tracks.csv"
    _write_csv(out_dir / "series_pv_tracks_core.csv", tracks,
               np.column_stack([pv_t, pv_x.reshape(len(pv_t), -1)]))
    series["pv_tracks_core"] = "series_pv_tracks_core.csv"
    _write_euler_fields(config, family, traj, out_dir, files)

    drift = traj.invariant_drift()
    amps, lens, _, _ = family.unpack(traj.states)
    metrics = {
        "max_rel_drift_A": float(
            np.max(np.abs(amps - amps[0]) / np.abs(amps[0]))
        ),
        "max_rel_drift_L": float(
            np.max(np.abs(lens - lens[0]) / np.abs(lens[0]))
        ),
        "drift_I1": float(drift[0]) if drift.size else np.nan,
        "drift_I2": float(drift[1]) if drift.size else np.nan,
        "net_circulations": [float(g) for g in net],
        "core_circulations": [float(g) for g in core],
        "max_cond_M": float(np.max(traj.diagnostics["cond_M"])),
    }
    metrics.update(metrics_of(traj.times, rons_x, (core, pv_t, pv_x), cores))
    return metrics, {"model": "rons_tracks", "reference": "pv_tracks_core"}


def _dipole_metrics(times, centers, pv, cores):
    mid = 0.5 * (centers[:, 0] + centers[:, 1])
    disp = mid - mid[0]
    total = np.linalg.norm(disp[-1])
    # lateral deviation from the straight line through start and end points
    direction = disp[-1] / max(total, 1e-300)
    lateral = np.abs(disp[:, 0] * direction[1] - disp[:, 1] * direction[0])
    speeds = np.linalg.norm(np.diff(mid, axis=0), axis=1) / np.diff(times)
    _, pv_t, pv_x = pv
    pv_mid = [0.5 * (x[0] + x[1]) for x in (pv_x[0], pv_x[-1])]
    _, V = cores
    v_rons = float(np.mean(speeds))
    v_pv = float(np.linalg.norm(pv_mid[1] - pv_mid[0]) / (pv_t[-1] - pv_t[0]))
    return {
        "rons_speed": v_rons,
        "speed_rel_variation": float(
            (speeds.max() - speeds.min()) / np.mean(speeds)
        ),
        "lateral_dev_over_distance": float(np.max(lateral) / max(total, 1e-300)),
        "euler_core_speed": float(np.linalg.norm(0.5 * (V[0] + V[1]))),
        "pv_speed_core_circulation": v_pv,
        "speed_rel_gap_pv_core": _rel_gap(v_rons, v_pv),
        "initial_separation": float(np.hypot(*(centers[0, 0] - centers[0, 1]))),
    }


def _fit_angular_velocity(times, theta):
    return float(np.polyfit(times, theta, 1)[0])


def _pair_metrics(times, centers, pv, cores):
    rel = centers[:, 1] - centers[:, 0]
    sep = np.linalg.norm(rel, axis=1)
    theta = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    omega = _fit_angular_velocity(times, theta)
    # windowed fits quantify how constant the rotation rate is; a third of
    # fewer than three steps fits no meaningful rate (NaN, null in summary.json)
    thirds = np.array_split(np.arange(len(times)), 3)
    if min(map(len, thirds)) < 3:
        rate_variation = np.nan
    else:
        omega_windows = [
            _fit_angular_velocity(times[idx], theta[idx]) for idx in thirds
        ]
        rate_variation = float((max(omega_windows) - min(omega_windows)) / abs(omega))
    strengths, pv_t, pv_x = pv
    rel_pv = pv_x[:, 1] - pv_x[:, 0]
    th_pv = np.unwrap(np.arctan2(rel_pv[:, 1], rel_pv[:, 0]))
    om_pv = _fit_angular_velocity(pv_t, th_pv)
    X, V = cores
    rel_core = X[1] - X[0]
    d_core = float(np.linalg.norm(rel_core))
    perp = np.array([-rel_core[1], rel_core[0]]) / d_core
    return {
        "separation_drift_rel": float(np.max(np.abs(sep - sep[0])) / sep[0]),
        "rons_angular_velocity": omega,
        "angular_velocity_rel_variation": rate_variation,
        "revolutions": float((theta[-1] - theta[0]) / (2 * np.pi)),
        "euler_core_angular_velocity": float((V[1] - V[0]) @ perp / d_core),
        "pv_angular_velocity_core": om_pv,
        "pv_formula_core": float(strengths[0] / (np.pi * sep[0] ** 2)),
        "omega_rel_gap_pv_core": _rel_gap(omega, om_pv),
    }


def _count_swaps(xa, xb):
    sign = np.sign(xa - xb)
    return int(np.sum(np.diff(sign) != 0))


def _leapfrog_metrics(times, centers, pv, cores):
    # vortices 1 and 3 carry positive amplitude, 2 and 4 negative
    x = centers[..., 0]
    return {
        "swaps_positive_pair": _count_swaps(x[:, 0], x[:, 2]),
        "swaps_negative_pair": _count_swaps(x[:, 1], x[:, 3]),
        "x_travel": float(x[-1, 0] - x[0, 0]),
    }


def _write_euler_fields(config, family, traj, out_dir, files):
    """psi and omega = -(psi_xx + psi_yy) on a window around each snapshot
    state, from one kernel pass per snapshot."""
    fields = []
    for t, q in zip(*_uniform_series(traj, config["snapshots"])):
        r = _window_rule(family, q, config["window_pad"], min(config["resolution"], 64))
        psi, _ = family.terms(r.nodes, q, ((0, 0), (2, 0), (0, 2)), ())
        omega = -(psi[2, 0] + psi[0, 2])
        fields.append(np.column_stack([np.full(len(r), t), r.nodes, psi[0, 0], omega]))
    _write_csv(out_dir / "fields.csv", ["t", "x", "y", "psi", "omega"], np.vstack(fields))
    files["fields"] = "fields.csv"


# -- galerkin-equivalence ---------------------------------------------------


def _run_galerkin(config, out_dir, files, series):
    n_modes = config["n_modes"]
    family = LinearModes(fourier_modes(2 * np.pi, n_modes))
    model = advection_diffusion(config["c"], config["nu"])
    rule = make_rule(periodic_interval(2 * np.pi), config["resolution"])
    rng = np.random.default_rng(config["seed"])

    max_dev, max_m_dev = 0.0, 0.0
    table = np.empty((config["n_states"], 3))
    for k in range(config["n_states"]):
        q = rng.standard_normal(n_modes)
        system = assemble(family, q, model, rule)
        dev = float(
            np.max(
                np.abs(reduced_rhs(system) - galerkin_rhs(family, q, model, rule))
            )
        )
        m_dev = float(np.max(np.abs(system.M.entries - np.eye(n_modes))))
        table[k] = k, dev, m_dev
        max_dev, max_m_dev = max(max_dev, dev), max(max_m_dev, m_dev)

    _write_csv(out_dir / "trajectory.csv", ["state", "rhs_deviation", "M_identity_deviation"], table)
    files["trajectory"] = "trajectory.csv"
    metrics = {
        "n_states": config["n_states"],
        "max_rhs_deviation": max_dev,
        "max_M_identity_deviation": max_m_dev,
    }
    return metrics, {}


# -- appendixA-instability --------------------------------------------------


def _fit_decay_rate(times, values):
    good = np.abs(values) > 0
    return float(np.polyfit(times[good], np.log(np.abs(values[good])), 1)[0])


def _run_instability(config, out_dir, files, series):
    lams = list(config["lambdas"])
    metrics = {"lambdas": lams}
    tables = []
    growth, growth_seeded, decay = [], [], []
    for lam in lams:
        t_end = config["t_horizon_over_lambda"] / lam
        # generic initial data: both exponential branches populated
        res = finite_time_instability([lam], [1.0], [0.0], t_end)
        growth.append(float(res.fitted_rates[0]))
        # decaying branch: round-off re-seeds the growing solution
        res_seeded = finite_time_instability([lam], [1.0], [-lam], t_end)
        growth_seeded.append(float(res_seeded.fitted_rates[0]))
        # first-order reduced dynamics on the same eigenmode decays
        family = LinearModes(fourier_modes(2 * np.pi, 1))
        model = advection_diffusion(0.0, lam)  # eigenvalue of sin(x) is lam
        rule = make_rule(periodic_interval(2 * np.pi), 64)
        traj = integrate(
            family,
            model,
            rule,
            (),
            [1.0],
            IntegratorConfig(t_end=4.0 / lam, rtol=config["rtol"], atol=config["atol"]),
        )
        decay.append(_fit_decay_rate(traj.times, traj.states[:, 0]))
        tables.append(np.column_stack([np.full(len(res.times), lam), res.times, res.q[:, 0]]))
    metrics.update(
        {
            "fitted_growth_rates": growth,
            "fitted_growth_rates_seeded": growth_seeded,
            "fitted_reduced_decay_rates": decay,
            "max_growth_rate_rel_err": float(
                max(abs(g - l) / l for g, l in zip(growth, lams))
            ),
            "max_seeded_rate_rel_err": float(
                max(abs(g - l) / l for g, l in zip(growth_seeded, lams))
            ),
            "max_decay_rate_rel_err": float(
                max(abs(d + l) / l for d, l in zip(decay, lams))
            ),
        }
    )
    _write_csv(out_dir / "trajectory.csv", ["lambda", "t", "q"], np.vstack(tables))
    files["trajectory"] = "trajectory.csv"
    return metrics, {}


# -- fit-demo ----------------------------------------------------------------


def _run_fit_demo(config, out_dir, files, series):
    family = HeatKernel()
    rule = make_rule(real_line(config["half_width"]), config["resolution"])
    q_true = np.asarray(config["q0"], dtype=float)
    u_true = family.evaluate(rule.nodes, q_true)

    # perturb orthogonally to the tangent space so the best fit stays q_true
    rng = np.random.default_rng(config["seed"])
    noise = rng.standard_normal(len(rule))
    T = family.tangent_stack(rule.nodes, q_true)
    w = rule.weights
    gram = (T * w) @ T.T
    noise -= T.T @ np.linalg.solve(gram, (T * w) @ noise)
    noise *= config["perturbation"] / np.sqrt(norm_sq(noise, rule))
    u0 = u_true + noise

    guess = q_true * (1.0 + config["guess_offset"])
    result = fit_initial(
        family, u0, rule, guess, n_starts=config["n_starts"], seed=config["seed"]
    )
    metrics = {
        "q_true": [float(v) for v in q_true],
        "q_fit": [float(v) for v in result.q],
        "max_param_rel_err": float(
            np.max(np.abs(result.q - q_true) / np.abs(q_true))
        ),
        "fit_residual_norm": result.residual_norm,
        "perturbation_norm": float(config["perturbation"]),
        "gradient_norm": result.gradient_norm,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    _write_csv(
        out_dir / "fields.csv",
        ["x", "u_target", "u_fit"],
        np.column_stack([rule.nodes, u0, family.evaluate(rule.nodes, result.q)]),
    )
    files["fields"] = "fields.csv"
    return metrics, {}


EXPERIMENTS: dict[str, ExperimentSpec] = {}


def _register(name, description, defaults, runner):
    """Declare an experiment with only the keys its runner reads, and
    `out_dir`, which `run` reads."""
    EXPERIMENTS[name] = ExperimentSpec(name, description, {**defaults, "out_dir": None}, runner)


_NLSE_FOCUSING = {
    **_INTEGRATION_DEFAULTS,
    "q0": [0.2, 20.0, -0.05, 0.0],
    "t_end": 60.0,
    # the projection is closed-form over the whole line; the rule
    # (half-width, Gauss-Legendre nodes) feeds only fields.csv
    "half_width": 120.0,
    "resolution": 1000,
    "constrained": True,
    "dns_modes": 512,
    "dns_length": 64 * np.sqrt(2.0) * np.pi,
    "dns_dt": 0.025,
}

_EULER_DEFAULTS = {
    **_INTEGRATION_DEFAULTS,
    "nu": 0.0,
    # the solve is exact; the window (nodes per axis, padding in L)
    # serves the t = 0 core-centroid oracle and, at <= 64 nodes, fields.csv
    "resolution": 110,
    "window_pad": 6.0,
    "constrained": True,
}

_register(
    "advdiff-exact",
    "traveling decaying sine wave; reduced dynamics reproduce the exact solution",
    {
        **_INTEGRATION_DEFAULTS,
        "q0": [1.0, 1.0, 0.0],
        "c": 1.0,
        "nu": 0.1,
        "t_end": 10.0,
        "resolution": 128,
    },
    _run_advdiff,
)
_register(
    "nlse-focusing",
    "focusing wave group versus pseudospectral reference",
    _NLSE_FOCUSING,
    _run_nlse,
)
_register(
    "nlse-defocusing",
    "defocusing wave group versus pseudospectral reference",
    {
        **_NLSE_FOCUSING,
        "q0": [0.2, 5.0, 0.0, 0.0],
        "t_end": 40.0,
        "half_width": 150.0,
        "resolution": 1400,
    },
    _run_nlse,
)
_register(
    "nlse-unconstrained",
    "focusing parameters without enforcing invariants (documents that the "
    "Gaussian packet conserves them automatically)",
    {**_NLSE_FOCUSING, "constrained": False},
    _run_nlse,
)
_register(
    "euler-dipole",
    "opposite-sign vortex pair translating on a straight line",
    {
        **_EULER_DEFAULTS,
        "q0": [1.0, 0.75, -3.0, 0.5, -1.0, 0.75, -3.0, -0.5],
        "t_end": 10.0,
        "window_pad": 7.0,
    },
    partial(_run_euler, n_vortices=2, metrics_of=_dipole_metrics),
)
_register(
    "euler-pair",
    "same-sign vortex pair rotating about its midpoint",
    {
        **_EULER_DEFAULTS,
        "q0": [1.0, 1.0, -1.0, 0.0, 1.0, 1.0, 1.0, 0.0],
        "t_end": 40.0,
    },
    partial(_run_euler, n_vortices=2, metrics_of=_pair_metrics),
)
_register(
    "euler-leapfrog",
    "two opposite-sign pairs exchanging front and back repeatedly",
    {
        **_EULER_DEFAULTS,
        "q0": [
            1.0, 0.3, 0.5, 0.5,
            -1.0, 0.3, 0.5, -0.5,
            1.0, 0.3, -0.5, 0.5,
            -1.0, 0.3, -0.5, -0.5,
        ],
        "t_end": 30.0,
        "resolution": 96,
        "rtol": 1e-7,
        "atol": 1e-9,
    },
    partial(_run_euler, n_vortices=4, metrics_of=_leapfrog_metrics),
)
_register(
    "galerkin-equivalence",
    "reduced equations coincide with Galerkin projection on linear modes",
    {
        "n_modes": 5,
        "n_states": 100,
        "c": 1.0,
        "nu": 0.1,
        "resolution": 64,
        "seed": 0,
    },
    _run_galerkin,
)
_register(
    "appendixA-instability",
    "accumulated-error formulation grows at +lambda; reduced dynamics decay at -lambda",
    {
        "lambdas": [0.5, 1.0, 2.0],
        "t_horizon_over_lambda": 40.0,
        # tolerances of the reduced first-order runs
        "rtol": 1e-8,
        "atol": 1e-10,
    },
    _run_instability,
)
_register(
    "fit-demo",
    "initial-condition fit onto the ansatz manifold by damped Gauss-Newton",
    {
        "q0": [1.0, 2.0],
        "half_width": 12.0,
        "resolution": 400,
        "perturbation": 1e-3,
        "guess_offset": 0.25,
        "n_starts": 1,
        "seed": 0,
    },
    _run_fit_demo,
)


def list_experiments() -> dict[str, ExperimentSpec]:
    return dict(EXPERIMENTS)


def _is_real(value) -> bool:
    """A finite int or float; a bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    # compared as a Python number: a float32 would cast the bound to inf
    return abs(_plain(value)) <= sys.float_info.max  # False for nan and +-inf


def _plain(value):
    """An accepted config value as JSON writes it: numpy integers and floats
    become Python int and float, in lists too."""
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return value


def _check_kind(key, value, default) -> None:
    """Raise ValueError unless `value` is of the kind of `key`'s default."""
    if key == "out_dir":
        kind, ok = "null or a path", value is None or isinstance(value, str)
    elif default is None:                               # dt: no step cap
        kind, ok = "null or a finite number", value is None or _is_real(value)
    elif isinstance(default, list):                     # q0 and lambdas
        kind = f"a list of {len(default) if key == 'q0' else 'any number of'} finite numbers"
        ok = isinstance(value, list) and all(map(_is_real, value))
        ok = ok and (key != "q0" or len(value) == len(default))
    elif isinstance(default, bool):
        kind, ok = "true or false", isinstance(value, bool)
    elif isinstance(default, int):
        kind, ok = "an integer", isinstance(value, numbers.Integral) and not isinstance(value, bool)
    elif isinstance(default, float):
        kind, ok = "a finite number", _is_real(value)
    else:
        kind, ok = "a string", isinstance(value, str)
    if not ok:
        raise ValueError(f"{key} must be {kind}, not {value!r}")


# keys that must be positive, and lower bounds of the others with one
_POSITIVE = (
    "t_end", "rtol", "atol", "dns_dt", "dns_length", "half_width", "window_pad",
    "t_horizon_over_lambda",
)
_AT_LEAST = {
    "resolution": 2, "snapshots": 1, "n_states": 1, "n_modes": 1, "n_starts": 1,
    "seed": 0, "nu": 0,
}


def resolve_config(config: dict) -> dict:
    """Merge a user config over the experiment defaults and validate it.

    Every supplied value must have the type of its key's default and lie in
    the key's range; a wrong one raises ValueError.
    """
    if "experiment" not in config:
        raise ValueError("config needs an 'experiment' key")
    name = config["experiment"]
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    spec = EXPERIMENTS[name]
    resolved = dict(spec.defaults)
    unknown = set(config) - set(spec.defaults) - {"experiment"}
    if unknown:
        raise ValueError(
            f"unknown config keys for {name}: {', '.join(sorted(unknown))}"
        )
    for key, value in config.items():
        if key != "experiment":
            _check_kind(key, value, spec.defaults[key])
            resolved[key] = _plain(value)
    resolved["experiment"] = name

    if "q0" in resolved:
        resolved["q0"] = [float(v) for v in resolved["q0"]]
    for key in _POSITIVE:
        if key in resolved and resolved[key] <= 0:
            raise ValueError(f"{key} must be positive")
    for key, bound in _AT_LEAST.items():
        if key in resolved and resolved[key] < bound:
            raise ValueError(f"{key} must be >= {bound}")
    if "dns_dt" in resolved:
        dns_steps(resolved["t_end"], resolved["dns_dt"])
    if "dns_modes" in resolved:
        n = resolved["dns_modes"]
        if n < 16 or n & (n - 1):
            raise ValueError("dns_modes must be a power of two >= 16")
    if "lambdas" in resolved and (not resolved["lambdas"] or min(resolved["lambdas"]) <= 0):
        raise ValueError("lambdas must be a non-empty list of positive rates")
    if "n_modes" in resolved:
        # the equispaced rule on N nodes integrates the products of modes up
        # to wavenumber k exactly, keeping them orthonormal, only if 2k < N
        top = (resolved["n_modes"] + 1) // 2
        if 2 * top >= resolved["resolution"]:
            raise ValueError(
                f"n_modes {resolved['n_modes']} reaches wavenumber {top}, which "
                f"needs resolution > {2 * top}, not {resolved['resolution']}"
            )
    if "scheme" in resolved:
        _integrator_config(resolved)    # scheme, dt and stride, as the run uses them
    return resolved


def _json_sanitize(value):
    """Replace non-finite floats with None so summaries stay strict JSON."""
    if isinstance(value, dict):
        return {k: _json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value


def _summary_schema() -> dict:
    with resources.files("rons").joinpath("summary_schema.json").open() as fh:
        return json.load(fh)


def validate_summary(summary: dict) -> None:
    import jsonschema

    jsonschema.validate(summary, _summary_schema())


def run(config: dict, out_dir: str | os.PathLike | None = None) -> RunRecord:
    """Execute one experiment; always writes a schema-valid summary.

    Numerical aborts (domain, immersion, constraint failures, blowups) yield
    a record with status "failed" and the abort reason; config errors raise
    ValueError before anything is written.
    """
    resolved = resolve_config(config)
    name = resolved["experiment"]
    if out_dir is None:
        out_dir = resolved.get("out_dir") or (output_root() / name)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)

    files: dict[str, str] = {"config": "config.json"}
    series: dict[str, str] = {}
    metrics: dict = {}
    roles: dict = {}
    status, abort_reason = "ok", None

    start = time.perf_counter()
    try:
        metrics, roles = EXPERIMENTS[name].runner(resolved, out_dir, files, series)
    except IntegrationAbort as exc:
        status, abort_reason = "failed", str(exc)
        if exc.partial is not None and len(exc.partial) > 0:
            _write_trajectory(out_dir / "trajectory.csv", exc.partial)
            files["trajectory"] = "trajectory.csv"
    except RonsError as exc:
        status, abort_reason = "failed", str(exc)
    wall = time.perf_counter() - start

    summary = _json_sanitize(
        {
            "experiment": name,
            "status": status,
            "version": __version__,
            "wall_time_s": wall,
            "config": resolved,
            "metrics": metrics,
            "files": files,
            "series": series,
            "series_roles": roles,
            "abort_reason": abort_reason,
        }
    )
    validate_summary(summary)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)

    return RunRecord(
        config=resolved,
        out_dir=out_dir,
        files=files,
        series=series,
        metrics=metrics,
        status=status,
        wall_time_s=wall,
        abort_reason=abort_reason,
    )


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _series_gap(path_a: Path, path_b: Path) -> dict:
    header_a, data_a = _read_series(path_a)
    header_b, data_b = _read_series(path_b)
    cols = [c for c in header_a[1:] if c in header_b[1:]]
    t_lo = max(data_a[0, 0], data_b[0, 0])
    t_hi = min(data_a[-1, 0], data_b[-1, 0])
    grid = np.linspace(t_lo, t_hi, 500)
    sup = 0.0
    for c in cols:
        ia, ib = header_a.index(c), header_b.index(c)
        va = np.interp(grid, data_a[:, 0], data_a[:, ia])
        vb = np.interp(grid, data_b[:, 0], data_b[:, ib])
        sup = max(sup, float(np.max(np.abs(va - vb))))
    out = {"sup_gap": sup, "columns": cols}
    if len(cols) == 1:
        ia, ib = header_a.index(cols[0]), header_b.index(cols[0])
        pa, pb = int(np.argmax(data_a[:, ia])), int(np.argmax(data_b[:, ib]))
        out["peak_gap"] = float(data_a[pa, ia] - data_b[pb, ib])
        out["peak_time_gap"] = float(data_a[pa, 0] - data_b[pb, 0])
    return out


def compare(summary_a: str | os.PathLike, summary_b: str | os.PathLike) -> dict:
    """Compare two run records.

    Shared series names are compared one to one (identical records give zero
    gaps); additionally the first record's model series is compared against
    the second record's reference series, which is the reduced-vs-oracle
    comparison when both summaries come from the same experiment.
    """
    with open(summary_a) as fh:
        a = json.load(fh)
    with open(summary_b) as fh:
        b = json.load(fh)
    if a["experiment"] != b["experiment"]:
        raise ValueError(
            f"cannot compare {a['experiment']} against {b['experiment']}"
        )
    dir_a, dir_b = Path(summary_a).parent, Path(summary_b).parent

    result = {
        "experiments": [a["experiment"], b["experiment"]],
        "series_gaps": {},
        "model_vs_reference": None,
        "metric_gaps": {},
    }
    shared = sorted(set(a["series"]) & set(b["series"]))
    for name in shared:
        result["series_gaps"][name] = _series_gap(
            dir_a / a["series"][name], dir_b / b["series"][name]
        )
    roles_a, roles_b = a.get("series_roles") or {}, b.get("series_roles") or {}
    if roles_a.get("model") and roles_b.get("reference"):
        result["model_vs_reference"] = _series_gap(
            dir_a / a["series"][roles_a["model"]],
            dir_b / b["series"][roles_b["reference"]],
        )
    # paired scalar metrics: reduced-model value in A against oracle value in B
    pairs = [
        ("rons_angular_velocity", "pv_angular_velocity_core"),
        ("rons_speed", "pv_speed_core_circulation"),
        ("rons_peak_amp", "dns_peak_amp"),
        ("rons_peak_time", "dns_peak_time"),
    ]
    for ka, kb in pairs:
        if ka in a["metrics"] and kb in b["metrics"]:
            va, vb = a["metrics"][ka], b["metrics"][kb]
            # a non-finite metric is stored as null
            gap = None if va is None or vb is None else _rel_gap(va, vb)
            result["metric_gaps"][f"{ka}_vs_{kb}"] = _json_sanitize(
                {"a": va, "b": vb, "rel_gap": gap}
            )
    return result
