"""Computational Hilbert spaces: domains, quadrature rules, inner products.

Inner products are plain weighted sums over quadrature nodes,

    <a, b> = sum_i w_i Re(a_i conj(b_i)),

so real and complex fields share one code path and every Gram matrix built
from them is real symmetric.  `make_rule` builds the 1-D rules: periodic
domains use the equispaced trapezoid rule (spectrally accurate there);
unbounded lines are truncated to an interval and integrated with
Gauss-Legendre nodes, relying on the Gaussian decay of every ansatz in the
catalog.  The 2D rules are Gauss-Legendre tensor rules on a box
(`box_rule`), such as a window around the vortices, and keep their two 1-D
axes, so that a field which factors into an x part and a y part is
tabulated on the n^2 nodes from 2n factor values.  The vortex and
wave-packet experiments solve their reduced equations without these rules,
by exact integrals over the whole domain (`rons.models.vortex_integrals`,
Gauss-Hermite, and `rons.models.wave_packet_integrals`, closed form); their
rules serve field snapshots, the t = 0 core-centroid oracle and the
quadrature projections.
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
    "QuadratureRule",
    "make_rule",
    "inner_product",
    "norm_sq",
]


@dataclass(frozen=True)
class Domain:
    """Spatial domain of the PDE.

    kind is "periodic" (an interval of the given length, periodic BCs) or
    "line" (the real line truncated to [-length, length]).
    """

    kind: str
    length: float

    def __post_init__(self):
        if self.kind not in ("periodic", "line"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValueError("domain length must be positive and finite")


def periodic_interval(length: float) -> Domain:
    return Domain("periodic", float(length))


def real_line(half_width: float) -> Domain:
    return Domain("line", float(half_width))


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights defining the discrete inner product.

    nodes has shape (P,) in 1D and (P, 2) in 2D; weights has shape (P,).
    A tensor rule in 2D also keeps its 1-D axes (x, y), of n nodes each
    with P = n^2: its nodes are every (x_i, y_j), x-major (node i n + j),
    so a field tabulated as an (n, n) grid ravels onto them.  axes is None
    for every other rule.
    """

    nodes: np.ndarray
    weights: np.ndarray
    axes: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if len(self.weights) != len(self.nodes):
            raise ValueError("nodes and weights must have equal length")
        if len(self.nodes) < 2:
            raise ValueError("a quadrature rule needs at least 2 nodes")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        if self.axes is not None:
            n = len(self.axes[0])
            if len(self.axes[1]) != n or n * n != len(self.nodes):
                raise ValueError("the axes must have equal lengths and span the nodes")
            for axis in self.axes:
                axis.setflags(write=False)

    def __len__(self) -> int:
        return len(self.weights)


def _legendre(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n(x) - P_{n-1}(x) at x = 1 - t.

    The three-term recurrence j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2},
    rewritten in the differences e_j = P_j - P_{j-1} and t.  Near x = 1,
    where every P_j is close to 1, the plain form puts P_1400 1e-12 off at
    the last node of the 1400-node rule, and this one 7e-16.
    """
    p, e = 1.0 - t, -t
    for j in range(2, n + 1):
        e = ((j - 1) * e - (2 * j - 1) * t * p) / j
        p = p + e
    return p, e


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the recurrence for the nonnegative half of the
    nodes, from Tricomi's initial guesses, mirrored exactly onto the other
    half (Hale & Townsend, SIAM J. Sci. Comput. 2013).  O(n) memory and
    O(n^2) flops, against O(n^3) and O(n^2) memory for the eigenvalue
    method.  Cached: the NLSE runs of one process share their rule, and
    each euler `fields.csv` snapshot remaps the same window rule.
    """
    m = (n + 1) // 2
    k = np.arange(m, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    while True:
        t = 1.0 - x                      # exact for x >= 1/2, where it matters
        s = t * (1.0 + x)                # 1 - x^2 without cancellation
        p, e = _legendre(n, t)
        dp = n * (t * p - e) / s         # P_n' = n (P_{n-1} - x P_n) / (1 - x^2)
        step = p / dp
        if np.max(np.abs(step)) < 1e-15:
            break
        x = x - step
    # the weight 2 / ((1 - x^2) P_n'(x)^2) has log-derivative -2x / (1 - x^2)
    # at a root; moving it to the root x - step, a fraction of an ulp away,
    # takes out the node's rounding, which would put the end weights of the
    # 1000-node rule 2e-11 off
    w = 2.0 / (s * dp**2) * (1.0 + 2.0 * x * step / s)
    x = x - step
    if n % 2:
        x[0] = 0.0
    x = np.concatenate((-x[n % 2:][::-1], x))
    w = np.concatenate((w[n % 2:][::-1], w))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def box_rule(lo, hi, resolution: int) -> QuadratureRule:
    """Gauss-Legendre tensor rule on an arbitrary 2D box [lo, hi].

    resolution is the node count of each axis.  Used for windows around the
    current vortex positions, which may have translated far from the
    origin, at a fixed node count.  The rule keeps its axes, on which
    separable fields are tabulated factor by factor.
    """
    n = int(resolution)
    if n < 2:
        raise ValueError("resolution must be >= 2")
    (x0, y0), (x1, y1) = lo, hi
    x, wx = gauss_legendre(x0, x1, n)
    y, wy = gauss_legendre(y0, y1, n)
    X, Y = np.meshgrid(x, y, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    return QuadratureRule(nodes, np.outer(wx, wy).ravel(), axes=(x, y))


def make_rule(domain: Domain, resolution: int) -> QuadratureRule:
    """Build the default rule of `resolution` nodes for a domain."""
    n = int(resolution)
    if n < 2:
        raise ValueError("resolution must be >= 2")
    length = domain.length
    if domain.kind == "periodic":
        nodes = np.arange(n) * (length / n)
        weights = np.full(n, length / n)
        return QuadratureRule(nodes, weights)
    # real line, truncated to [-length, length]
    nodes, weights = gauss_legendre(-length, length, n)
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
