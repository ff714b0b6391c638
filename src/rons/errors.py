"""Exception types shared across the package.

Numerical failures are first-class diagnostics here: a Cholesky breakdown of
the metric tensor is not a generic linear-algebra error, it means the ansatz
map stopped being an immersion at the current parameters, and callers are
expected to catch and report it as such.
"""

from __future__ import annotations


class RonsError(Exception):
    """Base class for all package errors."""


class AlignmentError(RonsError):
    """A sampled field does not match the quadrature rule it is used with."""


class DomainError(RonsError):
    """Parameter vector lies outside the ansatz family's admissible set."""


class ImmersionError(RonsError):
    """Metric tensor is not symmetric positive-definite.

    The tangent fields of the ansatz are (numerically) linearly dependent,
    so the reduced equations are ill-posed at this parameter vector.
    """


class DependentConstraintsError(RonsError):
    """Constraint matrix is not SPD: constraint gradients are dependent."""


class FitError(RonsError):
    """Initial-condition fit failed to converge.

    Carries the fit result of its last iterate, as `best`, so the caller
    can inspect it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class CollisionError(RonsError):
    """Point-vortex centers approached the Hamiltonian singularity."""


class IntegrationAbort(RonsError):
    """Time integration stopped before t_end.

    Carries the partial trajectory accumulated up to the failure together
    with the underlying cause.
    """

    def __init__(self, message, partial=None, cause=None):
        super().__init__(message)
        self.partial = partial
        self.cause = cause
