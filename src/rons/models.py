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
Two projections integrate over the whole domain instead and ignore the
rule; their bundles have `rule = None`:

- the Schroedinger model on the Gaussian wave packet, in closed form
  (`wave_packet_integrals`): every integrand is a Gaussian moment;
- the vorticity model built with `exact=True` (`vortex_integrals`): every
  integrand is a polynomial times a product of Gaussians, which is one
  Gaussian, and the tensor product of two 1-D Gauss-Hermite rules centred
  on that product integrates it exactly.  Every Gaussian derivative
  factors into an x part and a y part, so each integral is a sum of
  products of two 1-D sums, built from per-axis tables of the vortices.

The vorticity model's `evaluation` on a rule remains the node bundle for
field snapshots, the t = 0 core-centroid oracle and the quadrature
projection.

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
from typing import NamedTuple

import numpy as np

from .ansatz import AnsatzFamily, GaussianWavePacket, VortexStreamFunction
from .hilbert import QuadratureRule

__all__ = [
    "ModelEvaluation",
    "Projection",
    "VortexIntegrals",
    "WavePacketIntegrals",
    "PdeModel",
    "ConservedQuantity",
    "AdvectionDiffusion",
    "Nlse",
    "Vorticity",
    "advection_diffusion",
    "nlse",
    "vorticity",
    "vortex_integrals",
    "wave_packet_integrals",
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


@dataclass(frozen=True, eq=False)
class WavePacketIntegrals:
    """Exact whole-line inner products of one Gaussian wave-packet state."""

    rule = None                      # whole line: no quadrature rule

    M: np.ndarray                    # (4, 4) <T_i, T_j>
    f: np.ndarray                    # (4,)   <T_i, F>
    F_norm_sq: float                 # ||F||^2


def wave_packet_integrals(q) -> WavePacketIntegrals:
    """M, f and ||F||^2 of u_t = i u_xx + i |u|^2 u on the Gaussian packet,
    integrated over the whole line in closed form.

    With u = A exp(-beta x^2 + i phi) and beta = 1/L^2 - i V/L, the tangents
    are T_k = u (a_k + b_k x^2) (`GaussianWavePacket.tangent_coefficients`)
    and F = u (g0 + g1 x^2 + i A^2 e^{-2x^2/L^2}) with g0 = -2i beta and
    g1 = 4i beta^2.  The chirp cancels in every product, which leaves the
    moments mu_m = int x^{2m} e^{-2x^2/L^2}, nu_m = int x^{2m} e^{-4x^2/L^2}
    and rho_0 = int e^{-6x^2/L^2}.
    """
    A, L, V, _ = q
    beta = 1.0 / L**2 - 1j * V / L
    a, b = GaussianWavePacket.tangent_coefficients(q)
    g0, g1 = -2j * beta, 4j * beta**2
    mu0 = L * np.sqrt(np.pi / 2.0)
    mu1, mu2 = mu0 * L**2 / 4.0, 3.0 * mu0 * L**4 / 16.0
    nu0 = L * np.sqrt(np.pi) / 2.0
    nu1 = nu0 * L**2 / 8.0
    rho0 = L * np.sqrt(np.pi / 6.0)
    A2 = A * A
    ac, bc = a.conj(), b.conj()
    M = A2 * np.real(
        mu0 * np.outer(a, ac) + mu1 * (np.outer(a, bc) + np.outer(b, ac)) + mu2 * np.outer(b, bc)
    )
    # Re[-i z] = Im z for the cubic term
    f = A2 * np.real(
        a * np.conj(g0) * mu0 + (a * np.conj(g1) + b * np.conj(g0)) * mu1 + b * np.conj(g1) * mu2
    ) + A2**2 * np.imag(a * nu0 + b * nu1)
    F_norm_sq = (
        A2 * (abs(g0) ** 2 * mu0 + 2.0 * np.real(g0 * np.conj(g1)) * mu1 + abs(g1) ** 2 * mu2)
        + 2.0 * A2**2 * np.imag(g0 * nu0 + g1 * nu1)
        + A2**3 * rho0
    )
    return WavePacketIntegrals(M=M, f=f, F_norm_sq=float(F_norm_sq))


class Nlse(PdeModel):
    """u_t = i u_xx + i |u|^2 u.  On the Gaussian wave packet the projection
    integrates over the whole line in closed form (`wave_packet_integrals`)
    and ignores the rule it is handed; on other families it is the Galerkin
    projection on that rule."""

    def __init__(self):
        self.name = "nlse"
        self.conserved = nlse_invariants()

    def apply_F(self, family, q, rule):
        u = family.evaluate(rule.nodes, q)
        uxx = family.spatial_derivative(rule.nodes, q, 2)
        return 1j * uxx + 1j * np.abs(u) ** 2 * u

    def projection(self, family, q, rule=None, quantities=()):
        if not isinstance(family, GaussianWavePacket):
            return super().projection(family, q, rule, quantities)
        ints = wave_packet_integrals(q)
        return _project(family, q, ints, quantities, ints.M, ints.f, ints.F_norm_sq)


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

# Gauss-Hermite nodes of each 1-D rule.  Per axis, a tangent of w is a
# polynomial of degree <= 4 times the Gaussians, u.grad w of degree <= 3 and
# lap w of degree <= 4, and every integrand multiplies two such factors:
# degree <= 8 per axis.  n nodes are exact through degree 2n - 1, so 5 nodes
# (degree 9) per axis integrate every product exactly, and 4 do not.
PRODUCT_NODES = 5


@lru_cache(maxsize=8)
def _hermite_rule(nodes: int):
    """1-D Gauss-Hermite nodes z and weights w e^{z^2}:
    sum_k w_k g(z_k) = integral g dz for g = poly(z) exp(-z^2), exact
    through degree 2 * nodes - 1.  Cached: a pure function of the node
    count, used by every assemble."""
    z, w = np.polynomial.hermite.hermgauss(nodes)
    w = w * np.exp(z**2)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


# The fields of one vortex as sums of sign * A_v D^(a,b) G_v, written
# (sign, a, b); D^(a,b) G_v = X_a(x) Y_b(y) (`VortexStreamFunction.axis_factors`).
_PSI_X = ((1, 1, 0),)
_PSI_Y = ((1, 0, 1),)
_W = ((-1, 2, 0), (-1, 0, 2))
_W_X = ((-1, 3, 0), (-1, 1, 2))
_W_Y = ((-1, 2, 1), (-1, 0, 3))
_LAP_W = ((-1, 4, 0), (-2, 2, 2), (-1, 0, 4))
_XL = 5        # XL_a is row 5 + a of `axis_factors`, X_a row a


def _value(field):
    """The field as one row: its coefficient (0 is 1, 1 is A_v and 2 is
    A_v / L_v), shared by all its terms, and its terms (sign, x factor,
    y factor)."""
    return ((1, field),)


def _tangents(field):
    """The field's tangents along A_v, L_v, x_v and y_v, as four rows."""
    return (
        (0, field),
        (2, tuple(t for s, a, b in field for t in ((s, _XL + a, b), (s, a, _XL + b)))),
        (1, tuple((-s, a + 1, b) for s, a, b in field)),
        (1, tuple((-s, a, b + 1) for s, a, b in field)),
    )


class _Rows(NamedTuple):
    """Rows of terms compiled: each row's coefficient, the distinct terms'
    x and y factors, and the (rows, terms) matrix of their signs."""

    coefficient: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    signs: np.ndarray


def _compile(rows) -> _Rows:
    terms = sorted({t[1:] for _, row in rows for t in row})
    at = {t: k for k, t in enumerate(terms)}
    signs = np.zeros((len(rows), len(terms)))
    for r, (_, row) in enumerate(rows):
        for s, *t in row:
            signs[r, at[tuple(t)]] += s
    return _Rows(np.array([c for c, _ in rows]), *np.array(terms).T, signs)


# Rows of the pair integrals <left_i, right_j>.  Left: the tangents of w,
# psi_x and psi_y (0-3, 4-7, 8-11), then psi_x, psi_y, w, lap w (12-15).
# Right: the tangents of w (0-3), then psi_x, psi_y, w, lap w (4-7).
_PAIR_LEFT = _compile(
    _tangents(_W) + _tangents(_PSI_X) + _tangents(_PSI_Y)
    + _value(_PSI_X) + _value(_PSI_Y) + _value(_W) + _value(_LAP_W)
)
_PAIR_RIGHT = _compile(
    _tangents(_W) + _value(_PSI_X) + _value(_PSI_Y) + _value(_W) + _value(_LAP_W)
)
# rows of the first slot of a triple: the tangents of w (0-3), lap w (4)
_TRIPLE_SITE = _compile(_tangents(_W) + _value(_LAP_W))


def _link_terms():
    """s_jk = u_j . grad w_k + u_k . grad w_j with u = (psi_y, -psi_x) as
    A_j A_k times a sum of terms sign * X_aj X_ak (x) Y_bj Y_bk (y): the
    signs (T,) and the factors of j and of k, each (2, T) with the x
    factors in row 0 and the y factors in row 1."""
    terms = []
    for u, grad_w, sign in ((_PSI_Y, _W_X, 1), (_PSI_X, _W_Y, -1)):
        for on_j, on_k in ((u, grad_w), (grad_w, u)):
            for sj, aj, bj in on_j:
                for sk, ak, bk in on_k:
                    terms.append((sign * sj * sk, aj, ak, bj, bk))
    sign, aj, ak, bj, bk = np.array(terms).T
    return sign.astype(float), np.stack([aj, bj]), np.stack([ak, bk])


_LINK_SIGN, _LINK_J, _LINK_K = _link_terms()


@dataclass(frozen=True, eq=False)
class _ProductSites:
    """The Gaussian products of the exact vortex integrals of n vortices,
    K nodes per axis each (pairs, then triples, then quads), and the
    gathers that contract them.  Vortex v is tabulated in one block of K
    nodes per membership.  A product's 1-D Grams pair a left and a right
    operand, each a member's 8 factor rows or a link's 8 terms (a row of j
    times a row of k): the members of a pair, the first member and the link
    of a triple, the links of a quad."""

    links: np.ndarray          # (l, 2) j < k; triples (i, link) run i-major
    quad_links: tuple          # the two links of each quad, the first <= the second
    twice: np.ndarray          # (q,) 2 off the diagonal of the link pairs, else 1
    membership: np.ndarray     # (products, n) how often each vortex is a member
    blocks: np.ndarray         # (n, blocks) the product of each block of each vortex
    left: tuple                # flat table indices of the operands' members,
    right: tuple               # links' j and links' k, each (., 2, K, 8)
    pair: np.ndarray           # flat Gram indices, x then y: (2, TL, n^2, TR)
    triple: np.ndarray         # (2, n l, site terms, link terms)


@lru_cache(maxsize=8)
def _product_sites(nv: int, K: int) -> _ProductSites:
    """Index sets and gathers of `nv` vortices with K nodes per axis;
    cached, as they depend on nothing else."""
    idx = np.arange(nv)
    pairs = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1).reshape(-1, 2)
    links = np.array([(j, k) for j in idx for k in idx[j + 1:]], dtype=int).reshape(-1, 2)
    triples = np.column_stack([np.repeat(idx, len(links)), np.tile(links, (nv, 1))])
    a, b = np.triu_indices(len(links))
    groups = (pairs, triples, np.column_stack([links[a], links[b]]))
    members = np.concatenate([g.ravel() for g in groups])
    product = np.repeat(np.arange(sum(map(len, groups))), [g.shape[1] for g in groups for _ in g])
    membership = np.zeros((product[-1] + 1, nv))
    np.add.at(membership, (product, members), 1.0)
    # each membership's block (every vortex has as many), and where it
    # starts in the (8, 2, nv, width) table
    order = np.argsort(members, kind="stable")
    block = np.empty_like(members)
    block[order] = np.arange(len(members)) % (len(members) // nv)
    width = len(members) // nv * K
    start = np.split(members * width + block * K, np.cumsum([g.size for g in groups])[:-1])
    s2, s3, s4 = (st.reshape(g.shape).T for st, g in zip(start, groups))

    def rows(at, basis):
        """Table indices of the (2, 8) rows `basis` at the offsets `at`."""
        row = (basis * 2 + np.arange(2)[:, None]) * nv * width
        return row[:, None, :] + np.arange(K)[:, None] + np.concatenate(at)[:, None, None, None]

    def gram(p, row, column):
        """Flat (products, 2, 8, 8) Gram indices of x and y (row, column)."""
        return np.stack([((p * 2 + ax) * 8 + r) * 8 + c for ax, r, c in zip((0, 1), row, column)])

    every = np.tile(np.arange(8), (2, 1))
    at2, at3 = np.arange(len(pairs))[:, None], len(pairs) + np.arange(len(triples))[:, None, None]
    return _ProductSites(
        links=links,
        quad_links=(a, b),
        twice=np.where(a == b, 1.0, 2.0),
        membership=membership,
        blocks=product[order].reshape(nv, -1),
        left=(rows([s2[0], s3[0]], every), rows([s4[0]], _LINK_J), rows([s4[1]], _LINK_K)),
        right=(rows([s2[1]], every), rows([s3[1], s4[2]], _LINK_J), rows([s3[2], s4[3]], _LINK_K)),
        pair=gram(at2, (_PAIR_LEFT.fx[:, None, None], _PAIR_LEFT.fy[:, None, None]),
                  (_PAIR_RIGHT.fx, _PAIR_RIGHT.fy)),
        triple=gram(at3, (_TRIPLE_SITE.fx[:, None], _TRIPLE_SITE.fy[:, None]), every),
    )


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


def _operand(table, members, j, k):
    """One side of all 1-D Grams: the members' rows, then the links' terms."""
    out = np.empty((len(members) + len(j),) + members.shape[1:])
    np.take(table, members, out=out[: len(members)])
    np.multiply(table[j], table[k], out=out[len(members):])
    return out


def vortex_integrals(
    family: VortexStreamFunction, q, nu: float, nodes: int = PRODUCT_NODES
) -> VortexIntegrals:
    """M, f, ||F||^2 and the fluid invariants with their gradients, exactly.

    Vortex v contributes psi_v = A_v G_v, and every integrand is a sum of
    terms each of which involves a few vortices.  The product of their
    Gaussians is one Gaussian, C exp(-p |x - c|^2), whose Gauss-Hermite rule
    is the tensor product of two 1-D rules; every Gaussian derivative
    factors into an x part and a y part, D^(a,b) G_v = X_a(x) Y_b(y), and so
    do its tangents.  So one `family.axis_factors` call tabulates every
    vortex at the 1-D nodes of the products it belongs to, and each
    integral is a sum over term pairs of (x-sum) * (y-sum):

    - ordered pairs (i, j): the blocks M_ij, the gradients of energy and
      enstrophy, the viscous forcing nu <T_i, lap w_j> and nu^2 <lap w_i, lap w_j>;
    - triples (i, {j, k}) with j < k: the forcing -<T_i, s_jk> and the
      cross term -2 nu <lap w_i, s_jk> of ||F||^2, where
      s_jk = u_j . grad w_k + u_k . grad w_j (a single vortex does not
      advect itself, so u . grad w = sum over j < k of s_jk);
    - pairs of links {j, k} <= {l, m}: <s_jk, s_lm> of ||F||^2.
    """
    nv = family.n_vortices
    sites = _product_sites(nv, nodes)
    A, L, _, _ = family.unpack(q)
    z, wz = _hermite_rule(nodes)
    # precision p = sum 1/L_m^2 and centre c = sum (x_m / L_m^2) / p of each
    # product; per axis x = c + z / sqrt(p) and dx = dz / sqrt(p)
    prec = 1.0 / (L * L)
    p = sites.membership @ prec
    c = sites.membership @ (family.centers(q) * prec[:, None]) / p[:, None]
    root = np.sqrt(p)
    points = (c.T[:, sites.blocks, None] + z / root[sites.blocks, None]).reshape(2, nv, -1)
    table = family.axis_factors(points, q).ravel()
    lhs = _operand(table, *sites.left) * (wz / root[:, None])[:, None, :, None]
    gram = (lhs.swapaxes(-1, -2) @ _operand(table, *sites.right)).ravel()
    coefficients = np.array([np.ones(nv), A, A / L])

    # ordered pairs: the Grams, read once for every term pair, give
    # <left_i, right_j> for all rows of both sides, out[row_i, i, j, row_j];
    # each row's coefficient scales its row (left) or column (right)
    left, right = _PAIR_LEFT, _PAIR_RIGHT
    terms = gram[sites.pair[0]] * gram[sites.pair[1]]             # (TL, n^2, TR)
    out = (terms.reshape(-1, len(right.fx)) @ right.signs.T).reshape(len(left.fx), -1)
    out = (left.signs @ out).reshape(len(left.signs), nv, nv, -1)
    out *= coefficients[left.coefficient, :, None, None]
    out *= coefficients[right.coefficient].T
    M = out[:4, :, :, :4].transpose(1, 0, 2, 3).reshape(family.n, family.n)
    energy_gradient = (out[4:8, :, :, 4] + out[8:12, :, :, 5]).sum(axis=2).T.ravel()
    enstrophy_gradient = out[:4, :, :, 6].sum(axis=2).T.ravel()
    energy = 0.5 * float(out[12, :, :, 4].sum() + out[13, :, :, 5].sum())
    enstrophy = 0.5 * float(out[14, :, :, 6].sum())

    # triples: slot 0 is i, slots 1 and 2 the link j < k; the site terms
    # against the link terms, summed over the links of each i
    site, link_terms = _TRIPLE_SITE, len(_LINK_SIGN)
    link_A = A[sites.links[:, 0]] * A[sites.links[:, 1]]
    s3 = (gram[sites.triple[0]] * gram[sites.triple[1]]).reshape(-1, link_terms) @ _LINK_SIGN
    s3 = s3.reshape(-1, len(site.fx)) @ site.signs.T
    s3 = (s3.reshape(nv, len(link_A), len(site.signs)) * link_A[:, None]).sum(axis=1)
    s3 *= coefficients[site.coefficient].T                         # (nv, 5) <rows_i, s>
    f = -s3[:, :4].ravel()

    # pairs of links, the last products: off-diagonal pairs count twice
    quads = gram.reshape(-1, 2, link_terms, link_terms)[len(sites.membership) - len(sites.twice):]
    per_quad = (quads[:, 0] * quads[:, 1]).reshape(-1, link_terms) @ _LINK_SIGN
    per_quad = per_quad.reshape(-1, link_terms) @ _LINK_SIGN
    a, b = sites.quad_links
    F_norm_sq = float(per_quad @ (sites.twice * link_A[a] * link_A[b]))

    if nu > 0:
        f = f + nu * out[:4, :, :, 7].sum(axis=2).T.ravel()
        F_norm_sq += -2.0 * nu * float(s3[:, 4].sum())
        F_norm_sq += nu**2 * float(out[15, :, :, 7].sum())

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
