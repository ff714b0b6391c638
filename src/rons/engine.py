"""Core reduced-order machinery.

Given an ansatz family, a PDE model and a quadrature rule, `assemble` builds
the metric tensor M_ij = <du/dq_i, du/dq_j> and the forcing
f_i = <du/dq_i, F(u)> from the model's projection (`PdeModel.projection`):
weighted sums over the rule's nodes by default, or exact whole-domain
integrals, which ignore the rule, for the Schroedinger model on the
Gaussian wave packet and the vorticity model built with `exact=True`.
The optimal parameter velocity is qdot = M^-1 f; with conserved
quantities I_k enforced it becomes

    qdot = M^-1 (f - sum_k lambda_k grad I_k),    C lambda = b,

where C = B^T M^-1 B and b = B^T M^-1 f with B the matrix of constraint
gradients.  `assemble` factors M once and solves it once against [f | B],
which gives C, b and qdot.  A factorization failure is not a numerical
nuisance but a diagnosis (M not SPD means the ansatz map stopped being an
immersion; C not SPD means the constraint gradients became dependent).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .ansatz import AnsatzFamily
from .errors import DependentConstraintsError, FitError, ImmersionError
from .hilbert import QuadratureRule
from .models import ModelEvaluation, PdeModel, Projection

__all__ = [
    "MetricTensor",
    "ConstraintBlock",
    "ReducedSystem",
    "ResidualReport",
    "FitResult",
    "assemble",
    "reduced_rhs",
    "residual",
    "fit_initial",
]

# relative asymmetry of a quadrature-assembled Gram matrix beyond which we
# suspect an inconsistent rule rather than rounding
_ASYM_WARN = 1e-10


def _symmetrize(mat: np.ndarray, label: str) -> np.ndarray:
    sym = 0.5 * (mat + mat.T)
    asym = np.abs(mat - mat.T).max() / max(np.abs(sym).max(), 1e-300)
    if asym > _ASYM_WARN:
        warnings.warn(
            f"{label} asymmetric at relative level {asym:.2e}; "
            "quadrature may be inconsistent",
            stacklevel=3,
        )
    return sym


def _cholesky(mat: np.ndarray, exc_type, label: str) -> np.ndarray:
    chol, info = dpotrf(mat, lower=1, clean=1)
    if info != 0:
        raise exc_type(f"{label} is not positive-definite (potrf info {info})")
    return chol


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    x, info = dpotrs(chol, rhs, lower=1)
    if info != 0:
        raise ValueError(f"potrs rejected argument {-info}")
    return x


def _cond_estimate(chol: np.ndarray) -> float:
    # cheap bound from the Cholesky diagonal: cond(M) >= (max d / min d)^2
    d = np.diag(chol)
    return float((d.max() / d.min()) ** 2)


@dataclass(frozen=True, eq=False)
class MetricTensor:
    """Gram matrix of the tangent fields with its Cholesky factor."""

    entries: np.ndarray
    cholesky_factor: np.ndarray

    @property
    def condition_estimate(self) -> float:
        return _cond_estimate(self.cholesky_factor)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _cho_solve(self.cholesky_factor, rhs)


@dataclass(frozen=True, eq=False)
class ConstraintBlock:
    """Constraint gradients and the solved multipliers."""

    gradients: np.ndarray        # B, shape (n, m), columns grad I_k
    matrix: np.ndarray           # C = B^T M^-1 B, shape (m, m)
    cholesky_factor: np.ndarray
    rhs: np.ndarray              # b, shape (m,)
    multipliers: np.ndarray      # lambda, shape (m,)

    @property
    def condition_estimate(self) -> float:
        return _cond_estimate(self.cholesky_factor)


@dataclass(frozen=True, eq=False)
class ReducedSystem:
    """Assembled reduced equations at one parameter vector, with their
    solved qdot and the model projection they were built from."""

    q: np.ndarray
    M: MetricTensor
    f: np.ndarray
    constraints: ConstraintBlock | None
    qdot: np.ndarray
    projection: Projection = field(repr=False)
    jittered: bool = False


@dataclass(frozen=True)
class ResidualReport:
    """Instantaneous error of a candidate parameter velocity.

    J is 1/2 || sum_i (du/dq_i) qdot_i - F(u) ||^2 and J_raw is the qdot = 0
    value 1/2 ||F(u)||^2; the optimal qdot always satisfies J <= J_raw.
    On a rule's nodes J is the norm of the mismatch field itself; from exact
    integrals it is 1/2 (qdot.M.qdot - 2 qdot.f + ||F||^2).
    """

    J: float
    J_raw: float
    condition_M: float
    condition_C: float


def assemble(
    family: AnsatzFamily,
    q,
    model: PdeModel,
    rule: QuadratureRule | None,
    quantities=(),
    *,
    jitter: float = 0.0,
) -> ReducedSystem:
    """Build M, f and (optionally) the constraint block at q, and solve qdot.

    `quantities` is a sequence of ConservedQuantity objects whose gradients
    must be linearly independent; dependence is detected by the Cholesky
    factorization of C.  Their gradients come from the same model
    projection as M and f, so the state is evaluated once.  `jitter` adds
    jitter * trace(M)/n to the diagonal of M; it is off by default because
    a near-singular M should abort loudly rather than being silently
    regularized.
    """
    qv = family.require_valid(q)
    quantities = tuple(quantities)
    proj = model.projection(family, qv, rule, quantities)
    f, B = proj.f, proj.B
    rhs = np.concatenate((f[:, None], B), axis=1)
    if not (np.isfinite(proj.M).all() and np.isfinite(rhs).all()):
        raise ValueError("non-finite entries in M, f or the constraint gradients")

    M_entries = _symmetrize(proj.M, "metric tensor")
    if jitter > 0.0:
        M_entries = M_entries + (jitter * np.trace(M_entries) / len(M_entries)) * np.eye(
            len(M_entries)
        )
        warnings.warn(f"metric tensor jittered by {jitter:.1e} (exploratory mode)")
    chol = _cholesky(M_entries, ImmersionError, "metric tensor")
    solved = _cho_solve(chol, rhs)                     # M^-1 [f | B]
    qdot, Minv_B = solved[:, 0], solved[:, 1:]

    block = None
    if quantities:
        C = _symmetrize(B.T @ Minv_B, "constraint matrix")
        chol_C = _cholesky(C, DependentConstraintsError, "constraint matrix")
        b = B.T @ qdot
        lam = _cho_solve(chol_C, b)
        qdot = qdot - Minv_B @ lam
        block = ConstraintBlock(B, C, chol_C, b, lam)

    return ReducedSystem(
        q=qv,
        M=MetricTensor(M_entries, chol),
        f=f,
        constraints=block,
        qdot=qdot,
        projection=proj,
        jittered=jitter > 0.0,
    )


def reduced_rhs(system: ReducedSystem) -> np.ndarray:
    """Optimal parameter velocity qdot of the assembled system."""
    return system.qdot.copy()


def constraint_tangency(system: ReducedSystem, qdot: np.ndarray) -> np.ndarray:
    """Normalized residuals <grad I_k, qdot> / (||grad I_k|| ||qdot||).

    Zero (to rounding) whenever qdot came from the constrained solve; useful
    as a per-step diagnostic that the enforced quantities cannot drift except
    through time-integration error.
    """
    if system.constraints is None:
        return np.zeros(0)
    B = system.constraints.gradients
    denom = np.linalg.norm(B, axis=0) * max(np.linalg.norm(qdot), 1e-300)
    return (B.T @ qdot) / denom


def residual(system: ReducedSystem, qdot) -> ResidualReport:
    """Instantaneous error of a given qdot."""
    qdot = np.asarray(qdot, dtype=float)
    proj = system.projection
    J_raw = 0.5 * proj.F_norm_sq
    ev = proj.evaluation
    if isinstance(ev, ModelEvaluation):
        # the mismatch field on the nodes: no cancellation when J << J_raw
        mismatch = ev.tangents.T @ qdot.astype(ev.tangents.dtype) - ev.F
        J = 0.5 * float(np.sum(ev.rule.weights * np.abs(mismatch) ** 2))
    else:
        J = 0.5 * float(qdot @ proj.M @ qdot) - float(qdot @ proj.f) + J_raw
    cond_C = (
        system.constraints.condition_estimate if system.constraints is not None else np.nan
    )
    return ResidualReport(
        J=J, J_raw=J_raw, condition_M=system.M.condition_estimate, condition_C=cond_C
    )


# ---------------------------------------------------------------------------
# initial-condition fit:  q0 = argmin || u0 - u(., q) ||_H
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    q: np.ndarray
    residual_norm: float      # || u0 - u(., q) ||_H
    gradient_norm: float
    iterations: int
    converged: bool


def _fit_cost(family, u0, rule, q):
    r = u0 - family.evaluate(rule.nodes, q)
    return 0.5 * float(np.sum(rule.weights * np.abs(r) ** 2)), r


def fit_initial(
    family: AnsatzFamily,
    u0,
    rule: QuadratureRule,
    q_guess,
    *,
    max_iter: int = 200,
    grad_tol: float = 1e-12,
    step_tol: float = 1e-14,
    n_starts: int = 1,
    start_spread: float = 0.3,
    seed: int = 0,
) -> FitResult:
    """Fit ansatz parameters to a sampled field by damped Gauss-Newton.

    The Jacobian of the residual is the (negated) tangent basis, so no
    finite differencing is involved.  Levenberg-style damping grows on
    rejected steps and shrinks on accepted ones.  With n_starts > 1 the
    guess is perturbed multiplicatively and the best converged fit wins;
    the problem can be non-convex, so a bad basin is reported honestly via
    FitError carrying the best iterate found.
    """
    u0 = np.asarray(u0)
    q_guess = family.require_valid(q_guess)
    rng = np.random.default_rng(seed)

    best: FitResult | None = None
    for start in range(n_starts):
        q = q_guess.copy()
        if start > 0:
            q = q * (1.0 + start_spread * rng.standard_normal(len(q)))
            if not family.domain_check(q):
                continue
        result = _fit_single(family, u0, rule, q, max_iter, grad_tol, step_tol)
        if best is None or result.residual_norm < best.residual_norm:
            best = result
        if best.converged and best.residual_norm == 0.0:
            break

    if best is None or not best.converged:
        raise FitError(
            f"initial fit did not converge within {max_iter} iterations "
            f"(best residual {best.residual_norm if best else np.inf:.3e})",
            best=best,
        )
    return best


def _fit_single(family, u0, rule, q, max_iter, grad_tol, step_tol) -> FitResult:
    sqrt_w = np.sqrt(rule.weights)
    mu = 1e-3
    cost, r = _fit_cost(family, u0, rule, q)

    def jacobian_and_residual(q_cur, r_cur):
        # complex residuals are stacked as [Re; Im] so the normal equations
        # reproduce the real Hilbert pairing
        T = family.tangent_stack(rule.nodes, q_cur)       # (n, P)
        JT = (sqrt_w * T).T
        if np.iscomplexobj(T):
            return (
                np.vstack([np.real(JT), np.imag(JT)]),
                np.concatenate([np.real(sqrt_w * r_cur), np.imag(sqrt_w * r_cur)]),
            )
        return JT, sqrt_w * r_cur

    for it in range(1, max_iter + 1):
        Jmat, rvec = jacobian_and_residual(q, r)
        grad = Jmat.T @ rvec                              # gradient of cost wrt q is -grad
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= grad_tol * max(1.0, cost):
            return FitResult(q, np.sqrt(2.0 * cost), gnorm, it, True)

        JtJ = Jmat.T @ Jmat
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(JtJ + mu * np.diag(np.diag(JtJ) + 1e-300), grad)
            except np.linalg.LinAlgError:
                mu *= 4.0
                continue
            q_new = q + step
            if not family.domain_check(q_new):
                mu *= 4.0
                continue
            cost_new, r_new = _fit_cost(family, u0, rule, q_new)
            if cost_new <= cost:
                small = np.linalg.norm(step) <= step_tol * (1.0 + np.linalg.norm(q))
                q, cost, r = q_new, cost_new, r_new
                mu = max(mu / 3.0, 1e-12)
                accepted = True
                if small:
                    return FitResult(
                        q, np.sqrt(2.0 * cost), float(np.linalg.norm(grad)), it, True
                    )
                break
            mu *= 4.0
        if not accepted:
            # damping exhausted: local progress impossible at this iterate
            return FitResult(q, np.sqrt(2.0 * cost), gnorm, it, False)

    Jmat, rvec = jacobian_and_residual(q, r)
    gnorm = float(np.linalg.norm(Jmat.T @ rvec))
    return FitResult(q, np.sqrt(2.0 * cost), gnorm, max_iter, False)
