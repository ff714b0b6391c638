"""Ansatz families: parameterized solution shapes u(x, q).

Every family knows how to evaluate itself on a batch of points, how to
differentiate itself with respect to each parameter (the tangent fields
du/dq_i whose span is the tangent space of the ansatz manifold), and how to
take the spatial derivatives its PDE needs.  All derivatives are closed
forms; no numerical differentiation happens at evaluation time.  The test
suite validates every closed form against central finite differences.

The Gaussian stream-function family has two kernels.
`VortexStreamFunction.terms` builds the requested derivative orders and
parameter tangents of all vortices at every point of a rule in one pass;
the vorticity model calls it once per node bundle (field snapshots, the
t = 0 core-centroid oracle, the Galerkin projection on a rule).
`VortexStreamFunction.axis_factors` builds the 1-D factors X_a(x), Y_b(y)
of each vortex's Gaussian derivatives, D^(a,b) G = X_a(x) Y_b(y), with
their length-scale derivatives; the exact projection
(`rons.models.vortex_integrals`) calls it once per parameter state.
Nothing is cached between calls.

Point batches are arrays of shape (P,) for 1D families and (P, 2) for the
2D stream-function family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "AnsatzFamily",
    "SineWave",
    "HeatKernel",
    "GaussianWavePacket",
    "VortexStreamFunction",
    "LinearModes",
    "Mode",
    "fourier_modes",
]

# admissibility margin for open-set boundaries such as L > 0; integration
# aborts rather than clamping, so the margin only guards against exact zeros
_EPS = 1e-10


class AnsatzFamily:
    """Common interface of all ansatz families.

    Subclasses must set `name` and `labels` and implement `domain_violation`,
    `evaluate`, `tangent_stack` and `spatial_derivative`.
    """

    name: str = "ansatz"
    labels: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return len(self.labels)

    # -- parameter domain ---------------------------------------------------

    def domain_violation(self, q) -> str | None:
        """Return a human-readable reason if q lies outside the admissible
        set, else None."""
        raise NotImplementedError

    def domain_check(self, q) -> bool:
        """Whether `require_valid(q)` passes."""
        try:
            self.require_valid(q)
        except DomainError:
            return False
        return True

    def require_valid(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if len(q) != self.n:
            raise DomainError(
                f"{self.name}: expected {self.n} parameters, got {len(q)}"
            )
        if not np.all(np.isfinite(q)):
            raise DomainError(f"{self.name}: non-finite parameter values")
        reason = self.domain_violation(q)
        if reason is not None:
            raise DomainError(f"{self.name}: {reason}")
        return q

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, points, q) -> np.ndarray:
        raise NotImplementedError

    def tangent_stack(self, points, q) -> np.ndarray:
        """The tangent fields du/dq_i as the rows of an (n, P) array."""
        raise NotImplementedError

    def spatial_derivative(self, points, q, order) -> np.ndarray:
        """Spatial derivative; `order` is an int in 1D, an (ax, ay) pair in 2D."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Hermite helpers shared by the Gaussian-shaped families.
#
# d^k/dx^k exp(-s^2) = (-1)^k H_k(s) exp(-s^2) / L^k   with s = (x - c) / L,
# where H_k are the physicists' Hermite polynomials.
# ---------------------------------------------------------------------------


def _hermite_table(s: np.ndarray, kmax: int) -> list[np.ndarray]:
    """H_0(s) .. H_kmax(s) via the recurrence H_{k+1} = 2 s H_k - 2 k H_{k-1}."""
    table = [np.ones_like(s)]
    if kmax >= 1:
        table.append(2.0 * s)
    for k in range(1, kmax):
        table.append(2.0 * s * table[k] - 2.0 * k * table[k - 1])
    return table


# The rows X_0..X_4, XL_0..XL_2 of `VortexStreamFunction.axis_factors` are
# r^a poly(s) e^{-s^2}: each poly's coefficients of s^0..s^4, and each a
_AXIS_POLYNOMIALS = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0],          # H_0
    [0.0, 2.0, 0.0, 0.0, 0.0],          # H_1
    [-2.0, 0.0, 4.0, 0.0, 0.0],         # H_2
    [0.0, -12.0, 0.0, 8.0, 0.0],        # H_3
    [12.0, 0.0, -48.0, 0.0, 16.0],      # H_4
    [0.0, 0.0, 2.0, 0.0, 0.0],          # 2 s^2 H_0
    [0.0, -4.0, 0.0, 4.0, 0.0],         # (2 s^2 - 1) H_1 - 2 s H_0
    [4.0, 0.0, -20.0, 0.0, 8.0],        # (2 s^2 - 2) H_2 - 4 s H_1
])
_AXIS_R_POWERS = np.array([0, 1, 2, 3, 4, 0, 1, 2])


def _amplitude_length_violation(A, L) -> str | None:
    """The domain of the families with an amplitude A and a width L."""
    if A < _EPS:
        return f"amplitude A = {A} must be positive"
    if L < _EPS:
        return f"length scale L = {L} must be positive"
    return None


class SineWave(AnsatzFamily):
    """u(x; A, L, phi) = A sin(x / L + phi) on a periodic interval."""

    name = "sine-wave"
    labels = ("A", "L", "phi")

    def domain_violation(self, q):
        return _amplitude_length_violation(q[0], q[1])

    def evaluate(self, points, q):
        A, L, phi = q
        return A * np.sin(np.asarray(points) / L + phi)

    def tangent_stack(self, points, q):
        A, L, phi = q
        x = np.asarray(points)
        theta = x / L + phi
        A_cos = A * np.cos(theta)
        return np.stack([np.sin(theta), A_cos * (-x / L**2), A_cos])

    def spatial_derivative(self, points, q, order):
        # every x-derivative multiplies by 1/L and shifts the phase by pi/2
        A, L, phi = q
        k = int(order)
        theta = np.asarray(points) / L + phi + k * np.pi / 2
        return A * L ** (-k) * np.sin(theta)

class HeatKernel(AnsatzFamily):
    """u(x; A, L) = A exp(-x^2 / L^2) on the real line."""

    name = "heat-kernel"
    labels = ("A", "L")

    def domain_violation(self, q):
        return _amplitude_length_violation(q[0], q[1])

    def evaluate(self, points, q):
        A, L = q
        x = np.asarray(points)
        return A * np.exp(-(x**2) / L**2)

    def tangent_stack(self, points, q):
        A, L = q
        x = np.asarray(points)
        E = np.exp(-(x**2) / L**2)
        return np.stack([E, A * E * 2.0 * x**2 / L**3])

    def spatial_derivative(self, points, q, order):
        A, L = q
        k = int(order)
        s = np.asarray(points) / L
        H = _hermite_table(s, k)
        return A * (-1.0) ** k * L ** (-k) * H[k] * np.exp(-(s**2))

class GaussianWavePacket(AnsatzFamily):
    """Complex wave group u = A exp(-x^2/L^2 + i x^2 V / L + i phi).

    A is the amplitude, L the width, V the velocity parameter of the
    quadratic chirp and phi the global phase.  The parameters stay real;
    complex-valuedness is handled by the real Hermitian pairing of the
    hilbert module.
    """

    name = "gaussian-wave-packet"
    labels = ("A", "L", "V", "phi")

    def domain_violation(self, q):
        return _amplitude_length_violation(q[0], q[1])

    def evaluate(self, points, q):
        A, L, V, phi = q
        x = np.asarray(points)
        return A * np.exp(-(x**2) / L**2 + 1j * x**2 * V / L + 1j * phi)

    @staticmethod
    def tangent_coefficients(q) -> tuple[np.ndarray, np.ndarray]:
        """(a, b), each (4,) complex, of the tangents du/dq_k = u (a_k + b_k x^2)."""
        A, L, V, _ = q
        a = np.array([1.0 / A, 0.0, 0.0, 1j])
        b = np.array([0.0, 2.0 / L**3 - 1j * V / L**2, 1j / L, 0.0])
        return a, b

    def tangent_stack(self, points, q):
        a, b = self.tangent_coefficients(q)
        x2 = np.asarray(points) ** 2
        return self.evaluate(points, q) * (a[:, None] + b[:, None] * x2)

    def spatial_derivative(self, points, q, order):
        A, L, V, phi = q
        x = np.asarray(points)
        u = self.evaluate(points, q)
        k = int(order)
        if k == 0:
            return u
        # exponent h(x) = -beta x^2 + i phi with beta = 1/L^2 - i V/L
        beta = 1.0 / L**2 - 1j * V / L
        hp = -2.0 * beta * x
        if k == 1:
            return u * hp
        if k == 2:
            return u * (hp**2 - 2.0 * beta)
        raise ValueError("wave-packet derivatives implemented through order 2")


class VortexStreamFunction(AnsatzFamily):
    """Stream function of N axisymmetric Gaussian vortices.

    psi(x; q) = sum_i A_i exp(-|x - x_i|^2 / L_i^2) with 4 parameters
    (A_i, L_i, x_i, y_i) per vortex.  The family evaluates the stream
    function; the vorticity model derives velocity and vorticity from it.
    Every value, tangent and spatial derivative at given points comes from
    one kernel, `terms`, which builds all requested derivative orders of
    all vortices in a single pass; `axis_factors` gives the derivatives of
    single vortices as products of 1-D factors, one per axis.
    """

    def __init__(self, n_vortices: int):
        if n_vortices < 1:
            raise ValueError("need at least one vortex")
        self.n_vortices = int(n_vortices)
        self.name = f"vortex-stream-function[{n_vortices}]"
        labels = []
        for i in range(1, self.n_vortices + 1):
            labels += [f"A{i}", f"L{i}", f"x{i}", f"y{i}"]
        self.labels = tuple(labels)

    def _per_vortex(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return q.reshape(q.shape[:-1] + (self.n_vortices, 4))

    def unpack(self, q):
        """A, L, x, y of a state (n,) or a stack of states (..., n), each
        of shape (..., n_vortices)."""
        p = self._per_vortex(q)
        return p[..., 0], p[..., 1], p[..., 2], p[..., 3]

    def centers(self, q) -> np.ndarray:
        """The vortex centers of a state (n,) or a stack of states (..., n),
        of shape (..., n_vortices, 2)."""
        return self._per_vortex(q)[..., 2:]

    def length_scales(self, q) -> np.ndarray:
        return self.unpack(q)[1]

    def domain_violation(self, q):
        A, L, _, _ = self.unpack(q)
        if np.any(L < _EPS):
            return f"length scales must be positive, got {L}"
        if np.any(np.abs(A) < _EPS):
            # a zero-amplitude vortex makes its own tangent fields vanish
            # and the metric tensor singular
            return f"amplitudes must be nonzero, got {A}"
        return None

    def terms(self, points, q, orders, tangent_orders):
        """Mixed spatial derivatives of psi and their parameter tangents.

        Returns (psi, dpsi): psi[a, b] is D^(a,b) psi, shape (P,), for each
        (a, b) in `orders`, and dpsi[a, b] is d/dq of D^(a,b) psi, shape
        (n, P), for each (a, b) in `tangent_orders`; orders are (a, b)
        tuples.  With the scaled offsets sx = (x - x_i)/L_i,
        sy = (y - y_i)/L_i, E = exp(-sx^2 - sy^2) and the Hermite
        polynomials H_k, each Gaussian factor has

            D^(a,b) G_i = [(-1/L_i)^a H_a(sx)] [(-1/L_i)^b H_b(sy) E],

        built here as one (orders x vortices x P) table.  Only the tables
        that are asked for are built: a full tangent table of every order
        would dominate the memory of a large rule.
        """
        # the tangents of D^(a,b) G need the neighbouring orders: the center
        # tangents are -D^(a+1,b) G and -D^(a,b+1) G, and with dsx/dL = -sx/L
        # and H_k' = 2k H_{k-1} the length-scale tangent is
        #   [(2 s^2 - a - b) D^(a,b) G + 2a sx/L D^(a-1,b) G + 2b sy/L D^(a,b-1) G] / L
        needed = set(orders)
        for a, b in tangent_orders:
            needed |= {(a, b), (a + 1, b), (a, b + 1), (max(a - 1, 0), b), (a, max(b - 1, 0))}
        needed = sorted(needed)
        kmax = max(max(o) for o in needed)

        # rows: vortices, columns: points
        A, L, xc, yc = (v[:, None] for v in self.unpack(q))
        scales = [(-1.0 / L) ** k for k in range(kmax + 1)]
        sx = (points[:, 0] - xc) / L
        sy = (points[:, 1] - yc) / L
        s2 = sx**2 + sy**2
        E = np.exp(-s2)
        Dx = [c * H for c, H in zip(scales, _hermite_table(sx, kmax))]
        DyE = [c * H * E for c, H in zip(scales, _hermite_table(sy, kmax))]
        G = np.empty((len(needed),) + s2.shape)
        row = {}
        for k, (a, b) in enumerate(needed):
            np.multiply(Dx[a], DyE[b], out=G[k])
            row[a, b] = k
        del Dx, DyE                                        # before the tangent tables
        psi_all = A[:, 0] @ G
        psi = {o: psi_all[row[o]] for o in orders}

        dpsi = {}
        for a, b in tangent_orders:
            d_dL = (2.0 * s2 - (a + b)) * G[row[a, b]]
            if a >= 1:
                d_dL += 2.0 * a * sx / L * G[row[a - 1, b]]
            if b >= 1:
                d_dL += 2.0 * b * sy / L * G[row[a, b - 1]]
            d = np.empty((s2.shape[0], 4, s2.shape[1]))    # A_i, L_i, x_i, y_i
            d[:, 0] = G[row[a, b]]
            np.multiply(A / L, d_dL, out=d[:, 1])
            np.multiply(-A, G[row[a + 1, b]], out=d[:, 2])
            np.multiply(-A, G[row[a, b + 1]], out=d[:, 3])
            dpsi[a, b] = d.reshape(-1, s2.shape[1])
        return psi, dpsi

    def axis_factors(self, nodes, q):
        """The 1-D factors of each vortex on its own nodes.

        `nodes` (2, n_vortices, N) holds the x and y coordinates of N nodes
        per vortex.  The result (8, 2, n_vortices, N) holds on the x axis of
        vortex v, with s = (x - x_v)/L_v and r = -1/L_v, the rows
        X_a = r^a H_a(s) e^{-s^2} for a = 0..4 and then
        XL_a = L_v dX_a/dL_v = (2 s^2 - a) X_a + 2a (s/L_v) X_{a-1} for
        a = 0..2, each r^a times a fixed polynomial of s (`_AXIS_POLYNOMIALS`)
        times e^{-s^2}; likewise on the y axis.  Every Gaussian derivative
        factors, D^(a,b) G_v = X_a(x) Y_b(y), and so do its tangents: along
        A_v the factor itself, along x_v and y_v -A_v X_{a+1} Y_b and
        -A_v X_a Y_{b+1}, along L_v (A_v/L_v)(XL_a Y_b + X_a YL_b).
        """
        params = np.asarray(q, dtype=float).reshape(self.n_vortices, 4)
        r = -1.0 / params[:, 1]
        s = (nodes - params[:, 2:].T[:, :, None]) * -r[:, None]
        # s^p e^{-s^2} and r^p for p = 0..4, by products
        powers = np.empty((5,) + s.shape)
        np.exp(-(s * s), out=powers[0])
        r_powers = np.ones((5, len(r)))
        for p in range(1, 5):
            np.multiply(powers[p - 1], s, out=powers[p])
            np.multiply(r_powers[p - 1], r, out=r_powers[p])
        X = (_AXIS_POLYNOMIALS @ powers.reshape(5, -1)).reshape((8,) + s.shape)
        X *= r_powers[_AXIS_R_POWERS][:, None, :, None]
        return X

    def evaluate(self, points, q):
        return self.terms(points, q, ((0, 0),), ())[0][0, 0]

    def tangent_stack(self, points, q):
        return self.terms(points, q, (), ((0, 0),))[1][0, 0]

    def spatial_derivative(self, points, q, order):
        order = tuple(order)
        return self.terms(points, q, (order,), ())[0][order]

@dataclass(frozen=True)
class Mode:
    """A fixed mode with closed-form spatial derivatives."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray, int], np.ndarray]


class LinearModes(AnsatzFamily):
    """Linear combination sum_i q_i u_i(x) of fixed modes.

    The tangent fields are the modes themselves, independent of q, so the
    metric tensor equals the modes' Gram matrix and the reduced equations
    coincide with a classical Galerkin truncation.
    """

    def __init__(self, modes: Sequence[Mode]):
        self.modes = tuple(modes)
        if not self.modes:
            raise ValueError("need at least one mode")
        self.name = f"linear-modes[{len(self.modes)}]"
        self.labels = tuple(f"q_{m.name}" for m in self.modes)

    def domain_violation(self, q):
        return None

    def evaluate(self, points, q):
        out = q[0] * self.modes[0].value(points)
        for qi, mode in zip(q[1:], self.modes[1:]):
            out = out + qi * mode.value(points)
        return out

    def tangent_stack(self, points, q):
        return np.stack([mode.value(points) for mode in self.modes])

    def spatial_derivative(self, points, q, order):
        k = int(order)
        out = q[0] * self.modes[0].derivative(points, k)
        for qi, mode in zip(q[1:], self.modes[1:]):
            out = out + qi * mode.derivative(points, k)
        return out

def fourier_modes(length: float, count: int) -> list[Mode]:
    """Orthonormal sine/cosine modes on a periodic interval of given length.

    Ordered sin(1), cos(1), sin(2), cos(2), ... in units of the base
    wavenumber 2 pi / length; each normalized to unit L2 norm.
    """
    norm = np.sqrt(2.0 / length)
    modes = []

    def make(kind: str, k: int) -> Mode:
        w = 2.0 * np.pi * k / length
        shift = 0.0 if kind == "sin" else np.pi / 2

        def value(x, _w=w, _s=shift):
            return norm * np.sin(_w * np.asarray(x) + _s)

        def derivative(x, order, _w=w, _s=shift):
            return norm * _w**order * np.sin(
                _w * np.asarray(x) + _s + order * np.pi / 2
            )

        return Mode(f"{kind}{k}", value, derivative)

    k = 1
    while len(modes) < count:
        modes.append(make("sin", k))
        if len(modes) < count:
            modes.append(make("cos", k))
        k += 1
    return modes
