"""Core reduced-order machinery.

Given an ansatz family, a PDE model and a quadrature rule, `assemble` builds
the metric tensor M_ij = <du/dq_i, du/dq_j> and the forcing
f_i = <du/dq_i, F(u)> from the model's projection (`PdeModel.projection`):
weighted sums over the rule's nodes by default, or exact whole-domain
integrals, which ignore the rule, for the Schroedinger model on the
Gaussian wave packet and the vorticity model built with `exact=True`.
Every projection returns M symmetric bit for bit (the quadrature
contraction as 0.5 (M + M^T)), so the solve reads M as it comes.
The optimal parameter velocity is qdot = M^-1 f.  With conserved
quantities I_k enforced, qdot and the multipliers lambda_k solve the
optimality conditions as one bordered (saddle-point) system

    [ M    B ] [ qdot   ]   [ f ]
    [ B^T  0 ] [ lambda ] = [ 0 ],

with B the matrix of constraint gradients grad I_k, by one LU solve
(`numpy.linalg.solve`).  The same solve, against the extra right-hand
sides [0; -I], returns C^-1 for C = B^T M^-1 B and -M^-1 B C^-1, with
which one projection sweep makes B^T qdot vanish to rounding.  One
Cholesky factorization of the block diagonal M (+) C^-1 both factors M
and tests the rank of C.  A failure is not a numerical nuisance but a
diagnosis (M not SPD means the ansatz map stopped being an immersion; C
singular means the constraint gradients became dependent), and its
message names the matrix with its size and extreme eigenvalues.  C
itself is formed only where its condition estimate is read (`residual`),
and so is ||F||^2, which the solve never reads: `residual` asks the
projection's bundle for it.  Only numpy is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

_EPS = np.finfo(float).eps


def _spectrum(mat: np.ndarray, label: str) -> str:
    w = np.linalg.eigvalsh(mat)
    size = f"{mat.shape[0]}x{mat.shape[1]}"
    return f"{label} ({size}, eigvalsh from {w[0]:.3e} to {w[-1]:.3e})"


def _cond_estimate(chol: np.ndarray) -> float:
    # cheap bound from the Cholesky diagonal: cond(M) >= (max d / min d)^2
    d = chol.diagonal().tolist()
    return (max(d) / min(d)) ** 2


@dataclass(frozen=True, eq=False)
class MetricTensor:
    """Gram matrix of the tangent fields with its Cholesky factor."""

    entries: np.ndarray
    cholesky_factor: np.ndarray

    @property
    def condition_estimate(self) -> float:
        return _cond_estimate(self.cholesky_factor)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.entries, rhs)


@dataclass(frozen=True, eq=False)
class ConstraintBlock:
    """Constraint gradients and the solved multipliers."""

    gradients: np.ndarray        # B, shape (n, m), columns grad I_k
    multipliers: np.ndarray      # lambda, shape (m,)


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


@dataclass(frozen=True)
class ResidualReport:
    """Instantaneous error of a candidate parameter velocity.

    J is 1/2 || sum_i (du/dq_i) qdot_i - F(u) ||^2 and J_raw is the qdot = 0
    value 1/2 ||F(u)||^2; the optimal qdot always satisfies J <= J_raw.
    On a rule's nodes J is the norm of the mismatch field itself; from exact
    integrals it is 1/2 (qdot.M.qdot - 2 qdot.f + ||F||^2).  ||F||^2 comes
    from the projection's bundle (`F_norm_sq()`), which computes it only
    here: the solve never reads it.
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
) -> ReducedSystem:
    """Build M, f and (optionally) the constraint block at q, and solve qdot.

    `quantities` is a sequence of ConservedQuantity objects whose gradients
    must be linearly independent; dependence is detected from the rank of
    C^-1, which the bordered solve returns.  Their gradients come from the
    same model projection as M and f, so the state is evaluated once.  M is
    factored as it is: a near-singular M aborts with ImmersionError rather
    than being silently regularized.  Non-finite M, f or gradients, and an
    M that is not exactly symmetric, raise ValueError.
    """
    qv = family.require_valid(q)
    quantities = tuple(quantities)
    proj = model.projection(family, qv, rule, quantities)
    M, f, B = proj.M, proj.f, proj.B
    if not (np.isfinite(M).all() and np.isfinite(f).all() and np.isfinite(B).all()):
        raise ValueError("non-finite entries in M, f or the constraint gradients")
    if not (M == M.T).all():
        raise ValueError("the projection's M is not exactly symmetric")

    if not quantities:
        try:
            chol = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise _factorization_error(M, None) from None
        return ReducedSystem(qv, MetricTensor(M, chol), f, None, np.linalg.solve(M, f), proj)

    n, m = B.shape
    K = np.zeros((n + m, n + m))
    K[:n, :n] = M
    K[:n, n:] = B
    K[n:, :n] = B.T
    rhs = np.zeros((n + m, 1 + m))
    rhs[:n, 0] = f
    for k in range(m):
        rhs[n + k, 1 + k] = -1.0
    try:
        solved = np.linalg.solve(K, rhs)   # [[qdot, -M^-1 B C^-1], [lambda, C^-1]]
    except np.linalg.LinAlgError:
        raise _factorization_error(M, B) from None
    # one Cholesky of the block diagonal M (+) C^-1 factors M and tests the
    # rank of C: LU meets an exactly zero pivot only by chance, so the
    # gradients count as dependent when the Cholesky-diagonal bound on
    # cond(C) reaches 1 / ((n + m) eps), numpy's matrix_rank tolerance
    K[:n, n:] = 0.0
    K[n:, :n] = 0.0
    K[n:, n:] = solved[n:, 1:]
    try:
        chol = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        raise _factorization_error(M, B) from None
    if _cond_estimate(chol[n:, n:]) * (n + m) * _EPS >= 1.0:
        raise _factorization_error(M, B)
    # one projection sweep qdot - M^-1 B C^-1 B^T qdot takes the rounding
    # out of B^T qdot, which the solve leaves at eps times |M^-1 f| where
    # qdot cancels most of M^-1 f
    qdot = solved[:n, 0]
    qdot += solved[:n, 1:].dot(qdot.dot(B))
    block = ConstraintBlock(B, solved[n:, 0])
    return ReducedSystem(qv, MetricTensor(M, chol[:n, :n]), f, block, qdot, proj)


def _factorization_error(M: np.ndarray, B: np.ndarray | None) -> Exception:
    """ImmersionError if M has no Cholesky factor, else (with constraint
    gradients B) DependentConstraintsError, each naming its matrix."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return ImmersionError(f"{_spectrum(M, 'metric tensor M')} is not positive-definite")
    C = B.T @ np.linalg.solve(M, B)
    return DependentConstraintsError(
        f"{_spectrum(C, 'constraint matrix C = B^T M^-1 B')} is singular: "
        "the constraint gradients are dependent"
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
    """Instantaneous error of a given qdot.

    ||F||^2 is computed here, by the bundle of the system's projection:
    sum w |F|^2 on a rule's nodes, the closed form for the wave packet, and
    for the exact vortex bundle the link-pair products, which the projection
    leaves out, plus its stored nu-terms.
    """
    qdot = np.asarray(qdot, dtype=float)
    proj = system.projection
    ev = proj.evaluation
    J_raw = 0.5 * ev.F_norm_sq()
    if isinstance(ev, ModelEvaluation):
        # the mismatch field on the nodes: no cancellation when J << J_raw
        mismatch = ev.tangents.T @ qdot.astype(ev.tangents.dtype) - ev.F
        J = 0.5 * float(np.sum(ev.rule.weights * np.abs(mismatch) ** 2))
    else:
        J = 0.5 * float(qdot @ proj.M @ qdot) - float(qdot @ proj.f) + J_raw
    cond_C = np.nan
    if system.constraints is not None:
        B = system.constraints.gradients
        try:
            cond_C = _cond_estimate(np.linalg.cholesky(B.T @ system.M.solve(B)))
        except np.linalg.LinAlgError:
            cond_C = np.inf
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


# converged when the gradient norm is below _FIT_GRAD_TOL * max(1, cost) or
# an accepted step below _FIT_STEP_TOL * (1 + |q|), within _FIT_MAX_ITER
# Gauss-Newton iterations
_FIT_MAX_ITER = 200
_FIT_GRAD_TOL = 1e-12
_FIT_STEP_TOL = 1e-14


def _fit_cost(family, u0, rule, q):
    r = u0 - family.evaluate(rule.nodes, q)
    return 0.5 * float(np.sum(rule.weights * np.abs(r) ** 2)), r


def fit_initial(family: AnsatzFamily, u0, rule: QuadratureRule, q_guess) -> FitResult:
    """Fit ansatz parameters to a sampled field by damped Gauss-Newton.

    The Jacobian of the residual is the (negated) tangent basis, so no
    finite differencing is involved.  Levenberg-style damping grows on
    rejected steps and shrinks on accepted ones.  The fit starts from
    q_guess alone; the problem can be non-convex, so a bad basin is
    reported honestly via FitError carrying the last iterate.
    """
    result = _gauss_newton(family, np.asarray(u0), rule, family.require_valid(q_guess))
    if not result.converged:
        raise FitError(
            f"initial fit did not converge within {_FIT_MAX_ITER} iterations "
            f"(residual {result.residual_norm:.3e})",
            best=result,
        )
    return result


def _gauss_newton(family, u0, rule, q) -> FitResult:
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

    for it in range(1, _FIT_MAX_ITER + 1):
        Jmat, rvec = jacobian_and_residual(q, r)
        grad = Jmat.T @ rvec                              # gradient of cost wrt q is -grad
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= _FIT_GRAD_TOL * max(1.0, cost):
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
                small = np.linalg.norm(step) <= _FIT_STEP_TOL * (1.0 + np.linalg.norm(q))
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
    return FitResult(q, np.sqrt(2.0 * cost), gnorm, _FIT_MAX_ITER, False)
