"""Time integration of the reduced parameter ODE with dense diagnostics.

Two schemes: classical fixed-step RK4 and an adaptive Dormand-Prince 5(4)
pair.  The adaptive driver doubles as a general-purpose ODE solver for the
reference oracles (point vortices, the second-order instability demo).

When integrating reduced dynamics, trial stages can graze the boundary of
the admissible parameter set (for instance L passing through 0); such steps
are rejected and retried with half the step size up to a retry cap before
the run aborts with the partial trajectory attached.  Immersion and
constraint failures abort immediately: they mean the reduced equations
themselves broke down, and no step size fixes that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ansatz import AnsatzFamily
from .engine import assemble, constraint_tangency, reduced_rhs, residual
from .errors import (
    DependentConstraintsError,
    DomainError,
    ImmersionError,
    IntegrationAbort,
)
from .hilbert import QuadratureRule
from .models import PdeModel

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "solve_fixed_rk4",
    "solve_adaptive_rk45",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Scheme selection and tolerances for one reduced-ODE run."""

    t_end: float
    scheme: str = "rk45"          # "rk45" (adaptive) or "rk4" (fixed step)
    dt: float | None = None       # required for rk4; max step hint for rk45
    rtol: float = 1e-8
    atol: float = 1e-10
    stride: int = 1               # record every stride-th accepted step and the last
    max_domain_retries: int = 20

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.scheme not in ("rk45", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "rk4" and self.dt is None:
            raise ValueError("rk4 needs a positive dt")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive (None: no step cap for rk45)")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass(eq=False)
class Trajectory:
    """Recorded states and per-step diagnostics of one reduced-ODE run.

    diagnostics maps names to arrays over recorded steps: "J", "J_raw",
    "cond_M", "cond_C" are scalars per step; "invariants" has one column per
    tracked quantity and "tangency" one column per enforced constraint.
    """

    times: np.ndarray
    states: np.ndarray            # (S, n)
    qdots: np.ndarray             # (S, n)
    diagnostics: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)

    def interpolate(self, t) -> np.ndarray:
        """Cubic Hermite interpolation of q(t) between recorded steps.

        `t` is one time, giving a state (n,), or an array of times, giving
        one state per time (len(t), n); the last recorded time gives the
        last state exactly.
        """
        times = self.times
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any((ts < times[0]) | (ts > times[-1])):
            raise ValueError(f"t = {t} outside [{times[0]}, {times[-1]}]")
        j = np.searchsorted(times, ts, side="right") - 1
        out = np.empty((len(ts), self.states.shape[1]))
        last = j >= len(times) - 1
        out[last] = self.states[-1]
        j, ts = j[~last], ts[~last]
        h = times[j + 1] - times[j]
        s = (ts - times[j]) / h
        # float_power squares with the C library's pow, as `x ** 2` of a
        # float64 scalar does; `**` of an array squares exactly, and moves
        # the last bit of about 0.1% of the interpolated states
        r2, s2 = np.float_power(1 - s, 2), np.float_power(s, 2)
        h00 = (1 + 2 * s) * r2
        h10 = s * r2
        h01 = s2 * (3 - 2 * s)
        h11 = s2 * (s - 1)
        out[~last] = (
            h00[:, None] * self.states[j]
            + (h10 * h)[:, None] * self.qdots[j]
            + h01[:, None] * self.states[j + 1]
            + (h11 * h)[:, None] * self.qdots[j + 1]
        )
        return out if np.ndim(t) else out[0]

    def invariant_drift(self) -> np.ndarray:
        """Max |I_k(t) - I_k(0)| / |I_k(0)| over the run, per quantity."""
        inv = self.diagnostics.get("invariants")
        if inv is None or inv.size == 0:
            return np.zeros(0)
        ref = inv[0]
        scale = np.where(np.abs(ref) > 0, np.abs(ref), 1.0)
        return np.max(np.abs(inv - ref), axis=0) / scale


# ---------------------------------------------------------------------------
# generic steppers (also used by the oracles)
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) tableau; the fifth-order solution propagates.  Its
# weights are the last row of _DP_A, so the seventh stage sits at the new
# state and its derivative is the first stage of the next step (FSAL)
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# the stage times as Python floats, and which stages share the previous
# stage's time (only the seventh: stages 6 and 7 both sit at c = 1)
_DP_C_FLOAT = _DP_C.tolist()
_DP_SAME_C = [s > 0 and _DP_C[s] == _DP_C[s - 1] for s in range(len(_DP_C))]


class _StageRejected(Exception):
    """Internal: a trial stage left the admissible set; retry smaller."""


class StepSizeUnderflow(RuntimeError):
    """Step control collapsed below the resolvable step size.

    Raised when rejection cascades (error- or domain-driven) push the step
    under a floor relative to the integration horizon; without this guard a
    trajectory grazing the admissible boundary can creep forever in
    vanishing increments instead of aborting.
    """


def _rms(x: np.ndarray) -> float:
    """||x|| / sqrt(len(x)) of a 1-D real array, with the norm computed as
    np.linalg.norm computes it, sqrt(x.dot(x)), without its per-call
    overhead."""
    return math.sqrt(x.dot(x)) / math.sqrt(x.size)


def _initial_step(f, t0, y0, f0, t_end, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    try:
        f1 = f(t0 + h0, y0 + h0 * f0)
    except _StageRejected:
        return h0 * 1e-3
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end - t0)


def solve_adaptive_rk45(
    f,
    t0: float,
    y0: np.ndarray,
    t_end: float,
    *,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float = np.inf,
    max_domain_retries: int = 0,
    step_callback=None,
):
    """Dormand-Prince 5(4) with standard error-based step control.

    Returns (times, states, derivs) at accepted steps, endpoint included.
    If f raises _StageRejected (used by the reduced-ODE wrapper for domain
    violations at trial states), the step is halved up to
    max_domain_retries times.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    k0 = f(t, y)
    times, states, derivs = [t], [y.copy()], [k0.copy()]
    if step_callback is not None:
        step_callback(t, y, k0)
    h = min(_initial_step(f, t, y, k0, t_end, rtol, atol), max_step)

    n_stages = 7
    h_floor = max(1e-14, 1e-12 * (t_end - t0))
    max_steps = 1_000_000
    for _ in range(max_steps):
        if t >= t_end:
            break
        h = min(h, t_end - t, max_step)
        domain_retries = 0
        while True:
            if h < h_floor and t + h < t_end:
                raise StepSizeUnderflow(
                    f"step size {h:.3e} fell below the floor {h_floor:.3e} "
                    f"at t = {t:.6g}"
                )
            k = np.empty((n_stages, y.size))
            k[0] = k0
            ys = y
            try:
                for s in range(1, n_stages):
                    prev, ys = ys, y + h * (_DP_A[s] @ k[:s])
                    if _DP_SAME_C[s] and (ys == prev).all():
                        # when qdot is constant over the step, stages 6 and
                        # 7 land on the same state
                        k[s] = k[s - 1]
                    else:
                        k[s] = f(t + _DP_C_FLOAT[s] * h, ys)
            except _StageRejected:
                domain_retries += 1
                if domain_retries > max_domain_retries:
                    raise
                h *= 0.5
                continue

            y5 = ys
            y4 = y + h * (_DP_B4 @ k)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = _rms((y5 - y4) / scale)
            if err <= 1.0:
                t = t + h
                y = y5
                k0 = k[-1]
                times.append(t)
                states.append(y.copy())
                derivs.append(k0.copy())
                if step_callback is not None:
                    step_callback(t, y, k0)
                factor = 0.9 * err ** -0.2 if err > 0 else 5.0
                h *= min(5.0, max(0.2, factor))
                break
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
    else:
        raise RuntimeError("step budget exhausted before reaching t_end")

    return np.array(times), np.array(states), np.array(derivs)


def solve_fixed_rk4(f, t0, y0, t_end, dt, *, step_callback=None):
    """Classical fixed-step RK4; the final step is shortened to land on t_end."""
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    fy = f(t, y)
    times, states, derivs = [t], [y.copy()], [fy]
    if step_callback is not None:
        step_callback(t, y, fy)
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        h = min(dt, t_end - t)
        k1 = fy
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
        fy = f(t, y)
        times.append(t)
        states.append(y.copy())
        derivs.append(fy)
        if step_callback is not None:
            step_callback(t, y, fy)
    return np.array(times), np.array(states), np.array(derivs)


# ---------------------------------------------------------------------------
# reduced-ODE driver
# ---------------------------------------------------------------------------


def integrate(
    family: AnsatzFamily,
    model: PdeModel,
    rule: QuadratureRule | None,
    quantities,
    q0,
    config: IntegratorConfig,
    *,
    track_quantities=None,
) -> Trajectory:
    """Integrate qdot = M^-1 [f - sum lambda_k grad I_k] from q0 to t_end.

    `rule` is the quadrature rule of the model's projection; the exact
    vorticity projection ignores it, so it may be None there.
    `quantities` are enforced as constraints; `track_quantities` (default:
    the model's conserved set) are recorded per step for drift diagnostics,
    with their values read from the same projection (`value_at`).
    """
    quantities = tuple(quantities)
    if track_quantities is None:
        track_quantities = tuple(model.conserved)
    track_quantities = tuple(track_quantities)

    q0 = family.require_valid(q0)

    recorder = _Recorder(family, quantities, track_quantities, config)

    def rhs(_t, y):
        recorder.system = None  # release the previous state's tables first
        try:
            recorder.system = assemble(family, y, model, rule, quantities)
        except DomainError as exc:                  # a trial stage left the set
            raise _StageRejected from exc
        return reduced_rhs(recorder.system)

    try:
        if config.scheme == "rk4":
            solve_fixed_rk4(
                rhs, 0.0, q0, config.t_end, config.dt, step_callback=recorder
            )
        else:
            solve_adaptive_rk45(
                rhs,
                0.0,
                q0,
                config.t_end,
                rtol=config.rtol,
                atol=config.atol,
                max_step=np.inf if config.dt is None else config.dt,
                max_domain_retries=config.max_domain_retries,
                step_callback=recorder,
            )
    except _StageRejected as exc:
        raise IntegrationAbort(
            "step size control could not keep the parameters inside the "
            f"admissible set after {config.max_domain_retries} halvings",
            partial=recorder.build(),
            cause=exc,
        ) from exc
    except StepSizeUnderflow as exc:
        raise IntegrationAbort(
            f"integration stalled: {exc}",
            partial=recorder.build(),
            cause=exc,
        ) from exc
    except (ImmersionError, DependentConstraintsError) as exc:
        raise IntegrationAbort(
            f"reduced equations broke down: {exc}",
            partial=recorder.build(),
            cause=exc,
        ) from exc

    return recorder.build()


class _Recorder:
    """Collects states and diagnostics at every stride-th accepted step and
    at the last one.

    The steppers call back right after the right-hand side at the accepted
    state, so the reduced system assembled last (`system`, set by the
    integrator's right-hand side) is the one at that state.  A step the
    stride skips is held, with its system, until the next accepted step,
    and `build` records it if it was the last.
    """

    def __init__(self, family, quantities, track, config):
        self.family = family
        self.system = None
        self.quantities = quantities
        self.track = track
        self.stride = config.stride
        self.count = 0
        self.times, self.states, self.qdots = [], [], []
        self.J, self.J_raw, self.cond_M, self.cond_C = [], [], [], []
        self.invariants, self.tangency = [], []
        self.skipped = None

    def __call__(self, t, y, ydot):
        take = (self.count % self.stride) == 0
        self.count += 1
        if take:
            self.skipped = None
            self._record(t, y, ydot, self.system)
        else:
            self.skipped = (t, y, ydot, self.system)

    def _record(self, t, y, ydot, system):
        if not np.array_equal(system.q, y):
            raise RuntimeError(
                f"recorder at t = {t:.6g}: the last assembled system is not "
                "at the accepted state"
            )
        qdot = np.array(ydot, dtype=float)
        rep = residual(system, qdot)
        self.times.append(t)
        self.states.append(np.asarray(y, dtype=float).copy())
        self.qdots.append(qdot)
        self.J.append(rep.J)
        self.J_raw.append(rep.J_raw)
        self.cond_M.append(rep.condition_M)
        self.cond_C.append(rep.condition_C)
        if self.track:
            ev = system.projection.evaluation
            self.invariants.append([qt.value_at(self.family, y, ev) for qt in self.track])
        if self.quantities:
            self.tangency.append(np.abs(constraint_tangency(system, qdot)))

    def build(self) -> Trajectory:
        if self.skipped is not None:
            self._record(*self.skipped)
            self.skipped = None
        diag = {
            "J": np.array(self.J),
            "J_raw": np.array(self.J_raw),
            "cond_M": np.array(self.cond_M),
            "cond_C": np.array(self.cond_C),
        }
        if self.track:
            diag["invariants"] = np.array(self.invariants)
        if self.quantities:
            diag["tangency"] = np.array(self.tangency)
        return Trajectory(
            times=np.array(self.times),
            states=np.array(self.states),
            qdots=np.array(self.qdots),
            diagnostics=diag,
        )
