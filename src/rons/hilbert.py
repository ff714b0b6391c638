"""Computational Hilbert spaces: domains, quadrature rules, inner products.

Inner products are plain weighted sums over quadrature nodes,

    <a, b> = sum_i w_i Re(a_i conj(b_i)),

so real and complex fields share one code path and every Gram matrix built
from them is real symmetric.  Periodic domains use the equispaced trapezoid
rule (spectrally accurate there); unbounded domains are truncated to a box
and integrated with Gauss-Legendre nodes, relying on the Gaussian decay of
every ansatz in the catalog.  The vortex and wave-packet experiments solve
their reduced equations without these rules, by exact integrals over the
whole domain (`rons.models.vortex_integrals`, Gauss-Hermite, and
`rons.models.wave_packet_integrals`, closed form); their rules serve field
snapshots, the t = 0 core-centroid oracle and the quadrature projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AlignmentError

__all__ = [
    "Domain",
    "periodic_interval",
    "real_line",
    "plane",
    "QuadratureRule",
    "make_rule",
    "inner_product",
    "norm_sq",
]


@dataclass(frozen=True)
class Domain:
    """Spatial domain of the PDE.

    kind is one of "periodic" (interval of given length, periodic BCs),
    "line" (the real line truncated to [-hw, hw]) or "plane" (R^2 truncated
    to [-hw_x, hw_x] x [-hw_y, hw_y]).
    """

    kind: str
    extents: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("periodic", "line", "plane"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if any(not np.isfinite(e) or e <= 0 for e in self.extents):
            raise ValueError("domain extents must be positive and finite")
        ndim = {"periodic": 1, "line": 1, "plane": 2}[self.kind]
        if len(self.extents) != ndim:
            raise ValueError(f"{self.kind} domain needs {ndim} extent(s)")


def periodic_interval(length: float) -> Domain:
    return Domain("periodic", (float(length),))


def real_line(half_width: float) -> Domain:
    return Domain("line", (float(half_width),))


def plane(half_width_x: float, half_width_y: float | None = None) -> Domain:
    if half_width_y is None:
        half_width_y = half_width_x
    return Domain("plane", (float(half_width_x), float(half_width_y)))


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights defining the discrete inner product.

    nodes has shape (P,) in 1D and (P, 2) in 2D; weights has shape (P,).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.weights) != len(self.nodes):
            raise ValueError("nodes and weights must have equal length")
        if len(self.nodes) < 2:
            raise ValueError("a quadrature rule needs at least 2 nodes")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return len(self.weights)


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # reference Gauss-Legendre nodes/weights on [-1, 1]; cached because
    # vortex windows remap the same reference rule at every snapshot
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def box_rule(lo, hi, resolution) -> QuadratureRule:
    """Gauss-Legendre tensor rule on an arbitrary 2D box [lo, hi].

    resolution is the node count per axis, or a tuple (nx, ny).  Used for
    windows around the current vortex positions, which may have translated
    far from the origin, at a fixed node count.
    """
    if np.isscalar(resolution):
        resolution = (int(resolution), int(resolution))
    nx, ny = (int(r) for r in resolution)
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be >= 2 per axis")
    (x0, y0), (x1, y1) = lo, hi
    x, wx = gauss_legendre(x0, x1, nx)
    y, wy = gauss_legendre(y0, y1, ny)
    X, Y = np.meshgrid(x, y, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    return QuadratureRule(nodes, np.outer(wx, wy).ravel())


def make_rule(domain: Domain, resolution) -> QuadratureRule:
    """Build the default rule for a domain.

    resolution is the node count (per axis for plane domains, where a tuple
    (nx, ny) is also accepted).
    """
    if domain.kind == "plane":
        hx, hy = domain.extents
        return box_rule((-hx, -hy), (hx, hy), resolution)

    n = int(resolution)
    if n < 2:
        raise ValueError("resolution must be >= 2")
    if domain.kind == "periodic":
        (length,) = domain.extents
        nodes = np.arange(n) * (length / n)
        weights = np.full(n, length / n)
        return QuadratureRule(nodes, weights)
    # real line, truncated box
    (hw,) = domain.extents
    nodes, weights = gauss_legendre(-hw, hw, n)
    return QuadratureRule(nodes.copy(), weights.copy())


def _check_aligned(values: np.ndarray, rule: QuadratureRule, what: str):
    if len(values) != len(rule):
        raise AlignmentError(
            f"{what} has {len(values)} values but the rule has {len(rule)} nodes"
        )


def inner_product(a, b, rule: QuadratureRule) -> float:
    """Discrete Hilbert inner product sum_i w_i Re(a_i conj(b_i)).

    For real fields this is the plain weighted sum; for complex fields it is
    the real part of the Hermitian pairing, which keeps Gram matrices of
    complex tangent fields real and symmetric.
    """
    av, bv = np.asarray(a), np.asarray(b)
    _check_aligned(av, rule, "first field")
    _check_aligned(bv, rule, "second field")
    if np.iscomplexobj(av) or np.iscomplexobj(bv):
        return float(np.sum(rule.weights * np.real(av * np.conj(bv))))
    return float(np.sum(rule.weights * av * bv))


def norm_sq(a, rule: QuadratureRule) -> float:
    """Squared Hilbert norm ||a||^2 = <a, a> >= 0."""
    av = np.asarray(a)
    _check_aligned(av, rule, "field")
    return float(np.sum(rule.weights * np.abs(av) ** 2))
