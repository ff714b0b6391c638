"""PDE right-hand sides F(u) on the ansatz, and conserved quantities I_k(q).

A model owns the map from the ansatz family to the evolved field.  For the
advection-diffusion and Schroedinger models the evolved field is the ansatz
itself; for the 2D vorticity model the ansatz prescribes the stream function
while the evolved field is the vorticity w = -lap psi, so the model supplies
both the field and its parameter tangents derived from psi.

`PdeModel.projection` is the one pass per parameter state: it returns the
metric tensor M_ij = <T_i, T_j>, the forcing f_i = <T_i, F>, the gradients
of the conserved quantities and ||F||^2, and the bundle they were read
from, which the engine, the constraint solve and the integrator's recorder
all share.  By default it contracts the node bundle of
`PdeModel.evaluation` with the weights of the quadrature rule it is given.
The vorticity model built with `exact=True` instead integrates over the
whole plane and ignores the rule: every integrand is a polynomial times a
product of Gaussians, which is one Gaussian, and a Gauss-Hermite rule
centred on that product integrates it exactly (`vortex_integrals`).  Its
`evaluation` on a rule remains the node bundle for field snapshots, the
t = 0 core-centroid oracle and the quadrature projection.

Conserved quantities expose a value and a gradient in parameter space.  The
wave-packet mass and energy use closed-form Gaussian moments (cross-checked
against quadrature in the tests).  The fluid invariants are quadrature sums
on a rule, or exact sums over vortex pairs without one.  Gradients, and the
values the recorder reads (`value_at`), come from the bundle of the
projection; `value` alone is an independent computation from the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ansatz import AnsatzFamily, VortexStreamFunction
from .hilbert import QuadratureRule

__all__ = [
    "ModelEvaluation",
    "Projection",
    "VortexIntegrals",
    "PdeModel",
    "ConservedQuantity",
    "AdvectionDiffusion",
    "Nlse",
    "Vorticity",
    "advection_diffusion",
    "nlse",
    "vorticity",
    "vortex_integrals",
    "nlse_invariants",
    "euler_invariants",
]


@dataclass(frozen=True, eq=False)
class ModelEvaluation:
    """Everything one parameter state contributes, on one rule's nodes.

    The default projection contracts `tangents` and `F` with the rule's
    weights, and `engine.residual` reuses them for the instantaneous error.
    `ConservedQuantity.gradient` reads the bundle instead of evaluating the
    family again: stream-function models also fill in psi_x, psi_y (the
    velocity is (psi_y, -psi_x)) and their parameter tangents for the
    kinetic energy.
    """

    field: np.ndarray        # (P,)
    tangents: np.ndarray     # (n, P)
    F: np.ndarray            # (P,)
    rule: QuadratureRule
    psi_x: np.ndarray | None = None            # (P,)
    psi_y: np.ndarray | None = None            # (P,)
    psi_x_tangents: np.ndarray | None = None   # (n, P)
    psi_y_tangents: np.ndarray | None = None   # (n, P)


@dataclass(frozen=True, eq=False)
class Projection:
    """The inner products of one parameter state.

    B holds one column per quantity passed to `PdeModel.projection`, in
    order; `evaluation` is the bundle the quantities read: a
    ModelEvaluation, or VortexIntegrals for the exact vorticity projection.
    """

    M: np.ndarray            # (n, n)  <T_i, T_j>
    f: np.ndarray            # (n,)    <T_i, F>
    B: np.ndarray            # (n, m)  grad I_k
    F_norm_sq: float         # ||F||^2
    evaluation: object


def _project(family, q, evaluation, quantities, M, f, F_norm_sq) -> Projection:
    """The Projection with the quantities' gradients read from `evaluation`."""
    B = np.zeros((len(q), len(quantities)))
    for k, qt in enumerate(quantities):
        B[:, k] = qt.gradient(family, q, evaluation)
    return Projection(M, f, B, F_norm_sq, evaluation)


class PdeModel:
    """Base class: evolved field defaults to the ansatz itself."""

    name: str = "pde"

    def apply_F(self, family: AnsatzFamily, q, rule: QuadratureRule) -> np.ndarray:
        raise NotImplementedError

    def evaluation(self, family: AnsatzFamily, q, rule: QuadratureRule) -> ModelEvaluation:
        return ModelEvaluation(
            field=family.evaluate(rule.nodes, q),
            tangents=family.tangent_stack(rule.nodes, q),
            F=self.apply_F(family, q, rule),
            rule=rule,
        )

    def projection(
        self, family: AnsatzFamily, q, rule: QuadratureRule, quantities=()
    ) -> Projection:
        """M, f, the quantities' gradients and ||F||^2 at q, by the weighted
        sums of the rule over the nodes of `evaluation`."""
        ev = self.evaluation(family, q, rule)
        w = rule.weights
        Tw = ev.tangents * w
        return _project(
            family,
            q,
            ev,
            quantities,
            M=np.real(Tw @ ev.tangents.conj().T),
            f=np.real(Tw @ np.conj(ev.F)),
            F_norm_sq=float(np.sum(w * np.abs(ev.F) ** 2)),
        )

    #: conserved quantities this model can enforce (may be empty)
    conserved: tuple = ()


class ConservedQuantity:
    """A functional I(q) with its parameter gradient.

    `value` is an independent computation; it takes the quadrature rule so
    that a quantity evaluated by quadrature can use the nodes of the
    reduced system it constrains (closed forms ignore it, and None asks for
    the whole-domain value where a quantity has one).  `gradient` and
    `value_at` read the bundle of the model's projection at q (closed forms
    ignore it).
    """

    name: str = "invariant"

    def value(self, family: AnsatzFamily, q, rule: QuadratureRule | None = None) -> float:
        raise NotImplementedError

    def gradient(self, family: AnsatzFamily, q, evaluation) -> np.ndarray:
        raise NotImplementedError

    def value_at(self, family: AnsatzFamily, q, evaluation) -> float:
        """The value at the state of the bundle; by default `value` on the
        bundle's rule (None for the whole-plane VortexIntegrals)."""
        return self.value(family, q, evaluation.rule)


# ---------------------------------------------------------------------------
# advection-diffusion:  u_t = -c u_x + nu u_xx
# ---------------------------------------------------------------------------


class AdvectionDiffusion(PdeModel):
    def __init__(self, c: float, nu: float):
        if nu < 0:
            raise ValueError(f"diffusivity nu = {nu} must be >= 0")
        self.c = float(c)
        self.nu = float(nu)
        self.name = "advection-diffusion"

    def apply_F(self, family, q, rule):
        ux = family.spatial_derivative(rule.nodes, q, 1)
        uxx = family.spatial_derivative(rule.nodes, q, 2)
        return -self.c * ux + self.nu * uxx


def advection_diffusion(c: float, nu: float) -> AdvectionDiffusion:
    return AdvectionDiffusion(c, nu)


# ---------------------------------------------------------------------------
# nondimensional cubic Schroedinger:  u_t = i u_xx + i |u|^2 u
# ---------------------------------------------------------------------------


class WavePacketMass(ConservedQuantity):
    """I1 = integral |u|^2 dx = sqrt(pi/2) A^2 L for the Gaussian packet."""

    name = "mass"

    def value(self, family, q, rule=None):
        A, L, V, phi = q
        return float(np.sqrt(np.pi / 2.0) * A**2 * L)

    def gradient(self, family, q, evaluation=None):
        A, L, V, phi = q
        c = np.sqrt(np.pi / 2.0)
        return np.array([2.0 * c * A * L, c * A**2, 0.0, 0.0])


class WavePacketEnergy(ConservedQuantity):
    """I2 = 1/2 integral |u_x|^2 - 1/4 integral |u|^4.

    On the Gaussian packet this evaluates to

        I2 = sqrt(pi) A^2 (2 sqrt(2) (L^2 V^2 + 1) - A^2 L^2) / (8 L),

    which is phase-invariant and constant along exact solutions of the cubic
    Schroedinger equation (it is half the usual Hamiltonian).
    """

    name = "energy"

    def value(self, family, q, rule=None):
        A, L, V, phi = q
        return float(
            np.sqrt(np.pi)
            * A**2
            * (2.0 * np.sqrt(2.0) * (L**2 * V**2 + 1.0) - A**2 * L**2)
            / (8.0 * L)
        )

    def gradient(self, family, q, evaluation=None):
        A, L, V, phi = q
        rpi = np.sqrt(np.pi)
        r2 = np.sqrt(2.0)
        dA = rpi * (r2 * A * (L * V**2 + 1.0 / L) / 2.0 - A**3 * L / 2.0)
        dL = rpi * (r2 * A**2 * (V**2 - 1.0 / L**2) / 4.0 - A**4 / 8.0)
        dV = rpi * r2 * A**2 * L * V / 2.0
        return np.array([dA, dL, dV, 0.0])


class Nlse(PdeModel):
    def __init__(self):
        self.name = "nlse"
        self.conserved = nlse_invariants()

    def apply_F(self, family, q, rule):
        u = family.evaluate(rule.nodes, q)
        uxx = family.spatial_derivative(rule.nodes, q, 2)
        return 1j * uxx + 1j * np.abs(u) ** 2 * u


def nlse() -> Nlse:
    return Nlse()


def nlse_invariants() -> tuple[WavePacketMass, WavePacketEnergy]:
    """Mass and energy of the cubic Schroedinger equation on the Gaussian
    packet, as closed forms with analytic gradients."""
    return (WavePacketMass(), WavePacketEnergy())


# ---------------------------------------------------------------------------
# 2D inviscid/viscous vorticity:  w_t + u . grad w = nu lap w
# with u = (psi_y, -psi_x) and w = -lap psi
# ---------------------------------------------------------------------------


def _require_stream_family(family) -> VortexStreamFunction:
    if not isinstance(family, VortexStreamFunction):
        raise TypeError(
            "the vorticity model needs a stream-function family "
            f"(got {type(family).__name__})"
        )
    return family


# psi derivative orders of the inviscid right-hand side: u = (psi_y, -psi_x),
# w = -lap psi and grad w; the viscous term adds lap w
_INVISCID_ORDERS = ((1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))
_VISCOUS_ORDERS = ((4, 0), (2, 2), (0, 4))
# orders whose parameter tangents are needed: those of w and of u
_W_TANGENT_ORDERS = ((2, 0), (0, 2))
_U_TANGENT_ORDERS = ((1, 0), (0, 1))

# Gauss-Hermite nodes per axis of each Gaussian-product rule.  Per axis, a
# tangent of w is a polynomial of degree <= 4 times the Gaussians, u.grad w
# of degree <= 3 and lap w of degree <= 4, and every integrand multiplies
# two such factors: degree <= 8.  n nodes are exact through degree 2n - 1,
# so 6 nodes (degree 11) integrate every product exactly.
PRODUCT_NODES = 6


@lru_cache(maxsize=8)
def _hermite_rule(nodes_per_axis: int):
    """Tensor Gauss-Hermite nodes z, shape (K, 2), and weights w e^{|z|^2}:
    sum_k w_k g(z_k) = integral g dz for g = poly(z) exp(-|z|^2), exact
    through degree 2 * nodes_per_axis - 1 per axis.  Cached: a pure
    function of the node count, used by every assemble."""
    z, w = np.polynomial.hermite.hermgauss(nodes_per_axis)
    w = w * np.exp(z**2)
    zx, zy = np.meshgrid(z, z, indexing="ij")
    nodes, weights = np.column_stack([zx.ravel(), zy.ravel()]), np.outer(w, w).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _product_rules(L, centers, members, z, wz):
    """Nodes (G, K, 2) and weights (G, K) that integrate a polynomial times
    prod_{m in members[g]} exp(-|x - x_m|^2 / L_m^2) exactly over the plane.

    That product is C exp(-p |x - c|^2) with precision p = sum 1/L_m^2 and
    centre c = sum (x_m / L_m^2) / p; with x = c + z / sqrt(p), dx = dz / p.
    """
    prec = 1.0 / L[members] ** 2
    p = prec.sum(axis=1)
    c = np.einsum("gr,grd->gd", prec, centers[members]) / p[:, None]
    return c[:, None, :] + z / np.sqrt(p)[:, None, None], wz / p[:, None]


@dataclass(frozen=True, eq=False)
class VortexIntegrals:
    """Exact whole-plane inner products of one vortex state."""

    rule = None                      # whole plane: no quadrature rule

    M: np.ndarray                    # (n, n) <T_i, T_j> of the vorticity tangents
    f: np.ndarray                    # (n,)   <T_i, F>
    F_norm_sq: float                 # ||F||^2
    energy: float                    # 1/2 ||u||^2
    enstrophy: float                 # 1/2 ||w||^2
    energy_gradient: np.ndarray      # (n,)
    enstrophy_gradient: np.ndarray   # (n,)


def vortex_integrals(
    family: VortexStreamFunction, q, nu: float, nodes: int = PRODUCT_NODES
) -> VortexIntegrals:
    """M, f, ||F||^2 and the fluid invariants with their gradients, exactly.

    Vortex v contributes psi_v = A_v G_v, and every integrand is a sum of
    terms each of which involves a few vortices; each such product gets its
    own Gauss-Hermite rule (`_product_rules`), and one `family.terms` call
    evaluates every vortex at the nodes of the products it belongs to:

    - ordered pairs (i, j): the blocks M_ij, the gradients of energy and
      enstrophy, the viscous forcing nu <T_i, lap w_j> and nu^2 <lap w_i, lap w_j>;
    - triples (i, {j, k}) with j < k: the forcing -<T_i, s_jk> and the
      cross term -2 nu <lap w_i, s_jk> of ||F||^2, where
      s_jk = u_j . grad w_k + u_k . grad w_j (a single vortex does not
      advect itself, so u . grad w = sum over j < k of s_jk);
    - pairs of links {j, k} <= {l, m}: <s_jk, s_lm> of ||F||^2.
    """
    nv = family.n_vortices
    L, centers = family.length_scales(q), family.centers(q)
    idx = np.arange(nv)
    pairs = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1).reshape(-1, 2)
    links = np.array([(j, k) for j in idx for k in idx[j + 1:]], dtype=int).reshape(-1, 2)
    n_links = len(links)
    triples = np.column_stack([np.repeat(idx, n_links), np.tile(links, (nv, 1))])
    a, b = np.triu_indices(n_links)
    quads = np.column_stack([links[a], links[b]])
    groups = (pairs, triples, quads)

    z, wz = _hermite_rule(nodes)
    K = len(wz)
    points, owners, weights = [], [], []
    for members in groups:
        x, w = _product_rules(L, centers, members, z, wz)
        r = members.shape[1]
        points.append(np.broadcast_to(x, (r,) + x.shape).reshape(-1, 2))
        owners.append(np.repeat(members.T, K, axis=1).ravel())
        weights.append(w)
    orders = _INVISCID_ORDERS + (_VISCOUS_ORDERS if nu > 0 else ())
    # tangents are read only on both slots of the pairs and the first slot
    # of the triples, which are the leading sites
    n_pair_sites, n_triples = pairs.size * K, len(triples)
    psi, dpsi = family.terms(
        np.concatenate(points), q, orders, _W_TANGENT_ORDERS + _U_TANGENT_ORDERS,
        np.concatenate(owners), n_pair_sites + n_triples * K,
    )

    # per-site fields, each cut into the three groups with shape
    # (slot, product, node), and tangents cut into (4, slot, product, node)
    # on the pairs and (4, product, node) on the first slot of the triples
    bounds = np.cumsum([0] + [m.size * K for m in groups])

    def cut(table):
        return [
            table[..., lo:hi].reshape(table.shape[:-1] + (m.shape[1], len(m), K))
            for m, lo, hi in zip(groups, bounds[:-1], bounds[1:])
        ]

    px, py = cut(psi[1, 0]), cut(psi[0, 1])
    vort = cut(-(psi[2, 0] + psi[0, 2]))
    wx = cut(-(psi[3, 0] + psi[1, 2]))
    wy = cut(-(psi[2, 1] + psi[0, 3]))

    def cut_tangents(table):
        return (
            table[:, :n_pair_sites].reshape(4, 2, len(pairs), K),
            table[:, n_pair_sites:].reshape(4, n_triples, K),
        )

    T = cut_tangents(-(dpsi[2, 0] + dpsi[0, 2]))
    Tpx, Tpy = cut_tangents(dpsi[1, 0]), cut_tangents(dpsi[0, 1])

    def advect(g, j, k):
        """u_j . grad w_k + u_k . grad w_j on the slots j, k of group g."""
        return (py[g][j] * wx[g][k] - px[g][j] * wy[g][k]
                + py[g][k] * wx[g][j] - px[g][k] * wy[g][j])

    def per_vortex(T_slot, values):
        """sum over the products and nodes of one group of T * values, added
        up per vortex of the first slot: the (n,) gradient-shaped sum."""
        per_product = np.einsum("agk,gk->ga", T_slot, values)
        return per_product.reshape(nv, len(per_product) // nv, 4).sum(axis=1).ravel()

    w2, w3, w4 = weights
    # ordered pairs: slot 0 is i, slot 1 is j
    Tw = (T[0][:, 0] * w2).transpose(1, 0, 2)              # (G, 4, K)
    blocks = Tw @ T[0][:, 1].transpose(1, 2, 0)            # (G, 4, 4)
    M = blocks.reshape(nv, nv, 4, 4).transpose(0, 2, 1, 3).reshape(family.n, family.n)
    energy_gradient = per_vortex(Tpx[0][:, 0], w2 * px[0][1]) + per_vortex(
        Tpy[0][:, 0], w2 * py[0][1]
    )
    enstrophy_gradient = per_vortex(T[0][:, 0], w2 * vort[0][1])
    energy = 0.5 * float(np.sum(w2 * (px[0][0] * px[0][1] + py[0][0] * py[0][1])))
    enstrophy = 0.5 * float(np.sum(w2 * vort[0][0] * vort[0][1]))

    # triples: slot 0 is i, slots 1 and 2 the link j < k
    s3 = advect(1, 1, 2)
    f = -per_vortex(T[1], w3 * s3)
    # pairs of links: slots 0, 1 and 2, 3; off-diagonal pairs count twice
    twice = np.where(a == b, 1.0, 2.0)[:, None]
    F_norm_sq = float(np.sum(twice * w4 * advect(2, 0, 1) * advect(2, 2, 3)))

    if nu > 0:
        lap = cut(-(psi[4, 0] + 2.0 * psi[2, 2] + psi[0, 4]))
        f = f + nu * per_vortex(T[0][:, 0], w2 * lap[0][1])
        F_norm_sq += -2.0 * nu * float(np.sum(w3 * lap[1][0] * s3))
        F_norm_sq += nu**2 * float(np.sum(w2 * lap[0][0] * lap[0][1]))

    return VortexIntegrals(
        M=M,
        f=f,
        F_norm_sq=F_norm_sq,
        energy=energy,
        enstrophy=enstrophy,
        energy_gradient=energy_gradient,
        enstrophy_gradient=enstrophy_gradient,
    )


class Vorticity(PdeModel):
    """w_t + u . grad w = nu lap w.  With `exact`, the projection integrates
    over the whole plane (`vortex_integrals`) and ignores the rule it is
    handed; otherwise it is the Galerkin projection on that rule, like every
    model's."""

    def __init__(self, nu: float, exact: bool = False):
        if nu < 0:
            raise ValueError(f"viscosity nu = {nu} must be >= 0")
        self.nu = float(nu)
        self.exact = bool(exact)
        self.name = "vorticity"
        self.conserved = euler_invariants()

    def apply_F(self, family, q, rule):
        return self.evaluation(family, q, rule).F

    def evaluation(self, family, q, rule):
        fam = _require_stream_family(family)
        orders = _INVISCID_ORDERS + (_VISCOUS_ORDERS if self.nu > 0 else ())
        psi, dpsi = fam.terms(rule.nodes, q, orders, _W_TANGENT_ORDERS + _U_TANGENT_ORDERS)
        w = -(psi[2, 0] + psi[0, 2])
        ux, uy = psi[0, 1], -psi[1, 0]
        wx = -(psi[3, 0] + psi[1, 2])
        wy = -(psi[2, 1] + psi[0, 3])
        F = -(ux * wx + uy * wy)
        if self.nu > 0:
            lap_w = -(psi[4, 0] + 2.0 * psi[2, 2] + psi[0, 4])
            F = F + self.nu * lap_w
        tangents = -dpsi[2, 0]     # in place: one (n, P) table fewer at the peak
        tangents -= dpsi[0, 2]
        return ModelEvaluation(
            field=w,
            tangents=tangents,
            F=F,
            rule=rule,
            psi_x=psi[1, 0],
            psi_y=psi[0, 1],
            psi_x_tangents=dpsi[1, 0],
            psi_y_tangents=dpsi[0, 1],
        )

    def projection(self, family, q, rule=None, quantities=()):
        if not self.exact:
            return super().projection(family, q, rule, quantities)
        ints = vortex_integrals(_require_stream_family(family), q, self.nu)
        return _project(family, q, ints, quantities, ints.M, ints.f, ints.F_norm_sq)


def vorticity(nu: float, exact: bool = False) -> Vorticity:
    return Vorticity(nu, exact)


class KineticEnergy(ConservedQuantity):
    """I1 = 1/2 integral |u|^2 dA with u = (psi_y, -psi_x): by quadrature on
    a rule, or exactly over the plane as a sum over vortex pairs."""

    name = "kinetic-energy"

    def value(self, family, q, rule=None):
        fam = _require_stream_family(family)
        if rule is None:
            return vortex_integrals(fam, q, 0.0).energy
        psi, _ = fam.terms(rule.nodes, q, ((1, 0), (0, 1)), ())
        return float(0.5 * np.sum(rule.weights * (psi[1, 0] ** 2 + psi[0, 1] ** 2)))

    def value_at(self, family, q, evaluation):
        ev = evaluation
        if isinstance(ev, VortexIntegrals):
            return ev.energy
        return float(0.5 * np.sum(ev.rule.weights * (ev.psi_x**2 + ev.psi_y**2)))

    def gradient(self, family, q, evaluation):
        ev = evaluation
        if isinstance(ev, VortexIntegrals):
            return ev.energy_gradient
        w = ev.rule.weights
        return ev.psi_x_tangents @ (w * ev.psi_x) + ev.psi_y_tangents @ (w * ev.psi_y)


class Enstrophy(ConservedQuantity):
    """I2 = 1/2 integral w^2 dA with w = -lap psi: by quadrature on a rule,
    or exactly over the plane as a sum over vortex pairs."""

    name = "enstrophy"

    def value(self, family, q, rule=None):
        fam = _require_stream_family(family)
        if rule is None:
            return vortex_integrals(fam, q, 0.0).enstrophy
        psi, _ = fam.terms(rule.nodes, q, ((2, 0), (0, 2)), ())
        return float(0.5 * np.sum(rule.weights * (psi[2, 0] + psi[0, 2]) ** 2))

    def value_at(self, family, q, evaluation):
        ev = evaluation
        if isinstance(ev, VortexIntegrals):
            return ev.enstrophy
        return float(0.5 * np.sum(ev.rule.weights * ev.field**2))

    def gradient(self, family, q, evaluation):
        ev = evaluation
        if isinstance(ev, VortexIntegrals):
            return ev.enstrophy_gradient
        return ev.tangents @ (ev.rule.weights * ev.field)


def euler_invariants() -> tuple[KineticEnergy, Enstrophy]:
    """Kinetic energy and enstrophy of 2D incompressible flow."""
    return (KineticEnergy(), Enstrophy())
