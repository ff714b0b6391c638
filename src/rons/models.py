"""PDE right-hand sides F(u) on the ansatz, and conserved quantities I_k(q).

A model owns the map from the ansatz family to the evolved field.  For the
advection-diffusion and Schroedinger models the evolved field is the ansatz
itself; for the 2D vorticity model the ansatz prescribes the stream function
while the evolved field is the vorticity w = -lap psi, so the model supplies
both the field and its parameter tangents derived from psi.

`PdeModel.projection` is the one pass per parameter state: it returns the
metric tensor M_ij = <T_i, T_j>, the forcing f_i = <T_i, F> and the
gradients of the conserved quantities, and the bundle they were read
from, which the engine, the constraint solve and the integrator's recorder
all share.  The solve reads nothing else, so ||F||^2 is not part of the
pass: the bundle computes it when asked (`F_norm_sq()`), which only
`engine.residual` does, at the states the recorder writes.  By default
the projection contracts the node bundle of `PdeModel.evaluation` with the
weights of the quadrature rule it is given.  Two projections integrate
over the whole domain instead and ignore the rule; their bundles have
`rule = None`:

- the Schroedinger model on the Gaussian wave packet, in closed form
  (`wave_packet_integrals`): every integrand is a Gaussian moment;
- the vorticity model built with `exact=True` (`vortex_integrals`): every
  integrand is a polynomial times a product of Gaussians, which is one
  Gaussian, and the tensor product of two 1-D Gauss-Hermite rules centred
  on that product integrates it exactly.  Every Gaussian derivative
  factors into an x part and a y part, so each integral is a sum of
  products of two 1-D sums, built from per-axis tables of the vortices.
  The pass builds the ordered-pair and triple products, and M exactly
  symmetric; the link-pair products of ||F||^2 are built by `F_norm_sq`.

The vorticity model's `evaluation` on a rule remains the node bundle for
field snapshots, the t = 0 core-centroid oracle and the quadrature
projection.  It needs a box rule: the same factoring makes every field
and tangent table on the rule's n x n nodes a sum of outer products of
factor rows on its two axes, built from one `axis_factors` call on the
axes and the declarations (`_W`, `_PSI_X`, `_tangents`, ...) that the
exact projection reads.

Conserved quantities expose a value and a gradient in parameter space.  The
wave-packet mass and energy use closed-form Gaussian moments (cross-checked
against quadrature in the tests).  The fluid invariants are quadrature sums
on a rule, or exact sums over vortex pairs in the bundle of the exact
projection.  Gradients, and the values the recorder reads (`value_at`),
come from the bundle of the projection; `value` alone is an independent
computation from the family, and the fluid invariants compute it on a box
rule only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ansatz import _XL, AnsatzFamily, GaussianWavePacket, VortexStreamFunction
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
    "vortex_window_fields",
    "vortex_window_vorticity",
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

    def F_norm_sq(self) -> float:
        """||F||^2 by the weighted sum of the rule over the nodes."""
        return float(np.sum(self.rule.weights * np.abs(self.F) ** 2))


@dataclass(frozen=True, eq=False)
class Projection:
    """The inner products of one parameter state.

    B holds one column per quantity passed to `PdeModel.projection`, in
    order; `evaluation` is the bundle the quantities read: a
    ModelEvaluation, WavePacketIntegrals for the closed-form packet, or
    VortexIntegrals for the exact vorticity projection.  ||F||^2 is not
    here: every bundle computes it on demand (`evaluation.F_norm_sq()`),
    for `engine.residual`.
    """

    M: np.ndarray            # (n, n)  <T_i, T_j>
    f: np.ndarray            # (n,)    <T_i, F>
    B: np.ndarray            # (n, m)  grad I_k
    evaluation: object


def _project(family, q, evaluation, quantities, M, f) -> Projection:
    """The Projection with the quantities' gradients read from `evaluation`."""
    B = np.zeros((len(q), len(quantities)))
    for k, qt in enumerate(quantities):
        B[:, k] = qt.gradient(family, q, evaluation)
    return Projection(M, f, B, evaluation)


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
        """M, f and the quantities' gradients at q, by the weighted sums of
        the rule over the nodes of `evaluation`.  M is returned as
        0.5 (M + M^T), symmetric bit for bit, as every projection's is."""
        ev = self.evaluation(family, q, rule)
        Tw = ev.tangents * rule.weights
        M = np.real(Tw @ ev.tangents.conj().T)
        f = np.real(Tw @ np.conj(ev.F))
        return _project(family, q, ev, quantities, M=0.5 * (M + M.T), f=f)

    #: conserved quantities this model can enforce (may be empty)
    conserved: tuple = ()


class ConservedQuantity:
    """A functional I(q) with its parameter gradient.

    `value` is an independent computation; it takes the quadrature rule so
    that a quantity evaluated by quadrature can use the nodes of the
    reduced system it constrains (closed forms ignore it; a quantity
    evaluated by quadrature needs one).  `gradient` and `value_at` read the
    bundle of the model's projection at q (closed forms ignore it).
    """

    name: str = "invariant"

    def value(self, family: AnsatzFamily, q, rule: QuadratureRule | None = None) -> float:
        raise NotImplementedError

    def gradient(self, family: AnsatzFamily, q, evaluation) -> np.ndarray:
        raise NotImplementedError

    def value_at(self, family: AnsatzFamily, q, evaluation) -> float:
        """The value at the state of the bundle; by default `value` on the
        bundle's rule (None for the whole-domain bundles, which closed
        forms ignore)."""
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


class _PacketMoments(NamedTuple):
    """A^2, the coefficients g0 and g1 of F, and the Gaussian moments of
    one wave-packet state (`wave_packet_integrals`)."""

    A2: float
    g0: complex
    g1: complex
    mu: tuple       # mu_0, mu_1, mu_2
    nu: tuple       # nu_0, nu_1
    rho0: float


def _packet_moments(q) -> _PacketMoments:
    A, L, V, _ = q
    beta = 1.0 / L**2 - 1j * V / L
    mu0 = L * np.sqrt(np.pi / 2.0)
    nu0 = L * np.sqrt(np.pi) / 2.0
    return _PacketMoments(
        A2=A * A,
        g0=-2j * beta,
        g1=4j * beta**2,
        mu=(mu0, mu0 * L**2 / 4.0, 3.0 * mu0 * L**4 / 16.0),
        nu=(nu0, nu0 * L**2 / 8.0),
        rho0=L * np.sqrt(np.pi / 6.0),
    )


@dataclass(frozen=True, eq=False)
class WavePacketIntegrals:
    """Exact whole-line inner products of one Gaussian wave-packet state;
    ||F||^2 in closed form on demand."""

    rule = None                      # whole line: no quadrature rule

    M: np.ndarray                    # (4, 4) <T_i, T_j>
    f: np.ndarray                    # (4,)   <T_i, F>
    q: np.ndarray                    # (4,)   the state

    def F_norm_sq(self) -> float:
        """||F||^2 from the moments of `wave_packet_integrals`."""
        m = _packet_moments(self.q)
        (mu0, mu1, mu2), (nu0, nu1) = m.mu, m.nu
        g0, g1, A2 = m.g0, m.g1, m.A2
        return float(
            A2 * (abs(g0) ** 2 * mu0 + 2.0 * np.real(g0 * np.conj(g1)) * mu1 + abs(g1) ** 2 * mu2)
            + 2.0 * A2**2 * np.imag(g0 * nu0 + g1 * nu1)
            + A2**3 * m.rho0
        )


def wave_packet_integrals(q) -> WavePacketIntegrals:
    """M and f of u_t = i u_xx + i |u|^2 u on the Gaussian packet,
    integrated over the whole line in closed form, and ||F||^2 on demand.

    With u = A exp(-beta x^2 + i phi) and beta = 1/L^2 - i V/L, the tangents
    are T_k = u (a_k + b_k x^2) (`GaussianWavePacket.tangent_coefficients`)
    and F = u (g0 + g1 x^2 + i A^2 e^{-2x^2/L^2}) with g0 = -2i beta and
    g1 = 4i beta^2.  The chirp cancels in every product, which leaves the
    moments mu_m = int x^{2m} e^{-2x^2/L^2}, nu_m = int x^{2m} e^{-4x^2/L^2}
    and rho_0 = int e^{-6x^2/L^2}.
    """
    a, b = GaussianWavePacket.tangent_coefficients(q)
    m = _packet_moments(q)
    (mu0, mu1, mu2), (nu0, nu1) = m.mu, m.nu
    g0, g1, A2 = m.g0, m.g1, m.A2
    ac, bc = a.conj(), b.conj()
    M = A2 * np.real(
        mu0 * np.outer(a, ac) + mu1 * (np.outer(a, bc) + np.outer(b, ac)) + mu2 * np.outer(b, bc)
    )
    # Re[-i z] = Im z for the cubic term
    f = A2 * np.real(
        a * np.conj(g0) * mu0 + (a * np.conj(g1) + b * np.conj(g0)) * mu1 + b * np.conj(g1) * mu2
    ) + A2**2 * np.imag(a * nu0 + b * nu1)
    return WavePacketIntegrals(M=M, f=f, q=np.asarray(q, dtype=float))


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
        return _project(family, q, ints, quantities, ints.M, ints.f)


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


def _require_axes(rule) -> tuple[np.ndarray, np.ndarray]:
    axes = getattr(rule, "axes", None)
    if axes is None:
        raise TypeError(
            "the vorticity model on a rule needs a tensor rule with its axes "
            f"(`box_rule`), got {type(rule).__name__} without"
        )
    return axes

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
_PSI = ((1, 0, 0),)
_PSI_X = ((1, 1, 0),)
_PSI_Y = ((1, 0, 1),)
_W = ((-1, 2, 0), (-1, 0, 2))
_W_X = ((-1, 3, 0), (-1, 1, 2))
_W_Y = ((-1, 2, 1), (-1, 0, 3))
_LAP_W = ((-1, 4, 0), (-2, 2, 2), (-1, 0, 4))


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


# The groups of Gaussian products of the exact vortex integrals, in table
# order: ordered pairs (i, j), triples (i, {j, k}) and pairs of links
# {j, k} <= {l, m}.  The projection builds the first two; only ||F||^2
# reads the link pairs, so `VortexIntegrals.F_norm_sq` builds them alone.
_GROUPS = ("pairs", "triples", "link pairs")
_SOLVE_PRODUCTS = _GROUPS[:2]
_LINK_PAIRS = _GROUPS[2:]


@dataclass(frozen=True, eq=False)
class _ProductSites:
    """Gaussian products of the exact vortex integrals of n vortices, K
    nodes per axis each (the chosen groups of `_GROUPS`, in that order),
    and the gathers that contract them.  Vortex v is tabulated in one block
    of K nodes per membership.  A product's 1-D Grams pair a left and a
    right operand, each a member's 8 factor rows or a link's 8 terms (a row
    of j times a row of k): the members of a pair, the first member and the
    link of a triple, the links of a link pair."""

    links: np.ndarray          # (l, 2) j < k; triples (i, link) run i-major
    quad_links: tuple          # the two links of each link pair, the first <= the second
    twice: np.ndarray          # (q,) 2 off the diagonal of the link pairs, else 1
    membership: np.ndarray     # (products, n) how often each vortex is a member
    blocks: np.ndarray         # (n, blocks) the product of each block of each vortex
    left: tuple                # flat table indices of the operands' members,
    right: tuple               # links' j and links' k, each (., 2, K, 8)
    pair: np.ndarray           # flat Gram indices, x then y: (2, TL, n^2, TR)
    triple: np.ndarray         # (2, n l, site terms, link terms)
    first_link_pair: int       # the product index of the first link pair


@lru_cache(maxsize=16)
def _product_sites(nv: int, K: int, groups: tuple) -> _ProductSites:
    """Index sets and gathers of the product `groups` of `nv` vortices with
    K nodes per axis; cached, as they depend on nothing else."""
    idx = np.arange(nv)
    pairs = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1).reshape(-1, 2)
    links = np.array([(j, k) for j in idx for k in idx[j + 1:]], dtype=int).reshape(-1, 2)
    triples = np.column_stack([np.repeat(idx, len(links)), np.tile(links, (nv, 1))])
    a, b = np.triu_indices(len(links))
    every_group = (pairs, triples, np.column_stack([links[a], links[b]]))
    # a group left out keeps its columns with no rows
    chosen = [g if name in groups else g[:0] for name, g in zip(_GROUPS, every_group)]
    members = np.concatenate([g.ravel() for g in chosen])
    product = np.repeat(np.arange(sum(map(len, chosen))), [g.shape[1] for g in chosen for _ in g])
    membership = np.zeros((product[-1] + 1, nv))
    np.add.at(membership, (product, members), 1.0)
    # each membership's block (every vortex has as many), and where it
    # starts in the (8, 2, nv, width) table
    order = np.argsort(members, kind="stable")
    block = np.empty_like(members)
    block[order] = np.arange(len(members)) % (len(members) // nv)
    width = len(members) // nv * K
    start = np.split(members * width + block * K, np.cumsum([g.size for g in chosen])[:-1])
    s2, s3, s4 = (st.reshape(g.shape).T for st, g in zip(start, chosen))

    def rows(at, basis):
        """Table indices of the (2, 8) rows `basis` at the offsets `at`."""
        row = (basis * 2 + np.arange(2)[:, None]) * nv * width
        return row[:, None, :] + np.arange(K)[:, None] + np.concatenate(at)[:, None, None, None]

    def gram(p, row, column):
        """Flat (products, 2, 8, 8) Gram indices of x and y (row, column)."""
        return np.stack([((p * 2 + ax) * 8 + r) * 8 + c for ax, r, c in zip((0, 1), row, column)])

    every = np.tile(np.arange(8), (2, 1))
    n2, n3 = len(chosen[0]), len(chosen[1])
    at2, at3 = np.arange(n2)[:, None], n2 + np.arange(n3)[:, None, None]
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
        first_link_pair=n2 + n3,
    )


@dataclass(frozen=True, eq=False)
class VortexIntegrals:
    """Exact whole-plane inner products of one vortex state, from the
    ordered-pair and triple products.  M is exactly symmetric.  ||F||^2
    needs the link-pair products as well, which `F_norm_sq` builds when
    asked, with the two nu-terms stored here."""

    rule = None                      # whole plane: no quadrature rule

    M: np.ndarray                    # (n, n) <T_i, T_j> of the vorticity tangents
    f: np.ndarray                    # (n,)   <T_i, F>
    energy: float                    # 1/2 ||u||^2
    enstrophy: float                 # 1/2 ||w||^2
    energy_gradient: np.ndarray      # (n,)
    enstrophy_gradient: np.ndarray   # (n,)
    family: VortexStreamFunction
    q: np.ndarray                    # (n,)   the state
    nodes: int                       # Gauss-Hermite nodes per axis
    viscous: tuple                   # -2 nu <lap w, u . grad w>, nu^2 ||lap w||^2; () at nu = 0

    def F_norm_sq(self) -> float:
        """||F||^2 = ||u . grad w||^2, the link-pair products, plus the
        nu-terms: one more `axis_factors` call, on the nodes of the link
        pairs alone."""
        total = 0.0
        if self.family.n_vortices > 1:     # a lone vortex does not advect itself
            sites = _product_sites(self.family.n_vortices, self.nodes, _LINK_PAIRS)
            A = self.family.unpack(self.q)[0]
            total = _link_pair_sum(_grams(self.family, self.q, sites, self.nodes), sites, A)
        for term in self.viscous:
            total += term
        return total


def _operand(table, members, j, k):
    """One side of all 1-D Grams: the members' rows, then the links' terms."""
    out = np.empty((len(members) + len(j),) + members.shape[1:])
    np.take(table, members, out=out[: len(members)])
    np.multiply(table[j], table[k], out=out[len(members):])
    return out


def _grams(family, q, sites, nodes) -> np.ndarray:
    """The flat 1-D Grams (products, 2, 8, 8), x then y, of the products of
    `sites`, from one `family.axis_factors` call on their nodes.

    The product of a product's Gaussians is one Gaussian, with precision
    p = sum 1/L_m^2 and centre c = sum (x_m / L_m^2) / p; per axis its
    nodes are x = c + z / sqrt(p), and dx = dz / sqrt(p)."""
    nv = family.n_vortices
    _, L, _, _ = family.unpack(q)
    z, wz = _hermite_rule(nodes)
    prec = 1.0 / (L * L)
    p = sites.membership @ prec
    c = sites.membership @ (family.centers(q) * prec[:, None]) / p[:, None]
    root = np.sqrt(p)
    points = (c.T[:, sites.blocks, None] + z / root[sites.blocks, None]).reshape(2, nv, -1)
    table = family.axis_factors(points, q).ravel()
    lhs = _operand(table, *sites.left) * (wz / root[:, None])[:, None, :, None]
    return (lhs.swapaxes(-1, -2) @ _operand(table, *sites.right)).ravel()


def _link_pair_sum(gram, sites, A) -> float:
    """||u . grad w||^2 = sum over link pairs {j, k} <= {l, m} of
    <s_jk, s_lm>, off-diagonal pairs twice, from the Grams of `sites`."""
    link_terms, link_A = len(_LINK_SIGN), A[sites.links[:, 0]] * A[sites.links[:, 1]]
    quads = gram.reshape(-1, 2, link_terms, link_terms)[sites.first_link_pair:]
    per_quad = (quads[:, 0] * quads[:, 1]).reshape(-1, link_terms) @ _LINK_SIGN
    per_quad = per_quad.reshape(-1, link_terms) @ _LINK_SIGN
    a, b = sites.quad_links
    return float(per_quad @ (sites.twice * link_A[a] * link_A[b]))


def vortex_integrals(
    family: VortexStreamFunction, q, nu: float, nodes: int = PRODUCT_NODES
) -> VortexIntegrals:
    """M, f and the fluid invariants with their gradients, exactly, and
    what ||F||^2 needs beyond the link-pair products.

    Vortex v contributes psi_v = A_v G_v, and every integrand is a sum of
    terms each of which involves a few vortices.  The product of their
    Gaussians is one Gaussian, C exp(-p |x - c|^2), whose Gauss-Hermite rule
    is the tensor product of two 1-D rules; every Gaussian derivative
    factors into an x part and a y part, D^(a,b) G_v = X_a(x) Y_b(y), and so
    do its tangents.  So one `family.axis_factors` call tabulates every
    vortex at the 1-D nodes of the products it belongs to, and each
    integral is a sum over term pairs of (x-sum) * (y-sum):

    - ordered pairs (i, j): the blocks M_ij, the gradients of energy and
      enstrophy, the viscous forcing nu <T_i, lap w_j> and the nu^2
      <lap w_i, lap w_j> term of ||F||^2;
    - triples (i, {j, k}) with j < k: the forcing -<T_i, s_jk> and the
      cross term -2 nu <lap w_i, s_jk> of ||F||^2, where
      s_jk = u_j . grad w_k + u_k . grad w_j (a single vortex does not
      advect itself, so u . grad w = sum over j < k of s_jk).

    The pairs of links {j, k} <= {l, m}, <s_jk, s_lm>, make up the rest of
    ||F||^2; `VortexIntegrals.F_norm_sq` builds them on demand.  M is
    returned as 0.5 (M + M^T), symmetric bit for bit.
    """
    sites = _product_sites(family.n_vortices, nodes, _SOLVE_PRODUCTS)
    return _solve_integrals(family, q, nu, nodes, sites, _grams(family, q, sites, nodes))


def _solve_integrals(family, q, nu, nodes, sites, gram) -> VortexIntegrals:
    """The pair and triple contractions of `vortex_integrals` on the Grams
    of `sites`."""
    nv = family.n_vortices
    A, L, _, _ = family.unpack(q)
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

    viscous = ()
    if nu > 0:
        f = f + nu * out[:4, :, :, 7].sum(axis=2).T.ravel()
        viscous = (-2.0 * nu * float(s3[:, 4].sum()), nu**2 * float(out[15, :, :, 7].sum()))

    return VortexIntegrals(
        M=0.5 * (M + M.T),
        f=f,
        energy=energy,
        enstrophy=enstrophy,
        energy_gradient=energy_gradient,
        enstrophy_gradient=enstrophy_gradient,
        family=family,
        q=np.asarray(q, dtype=float),
        nodes=nodes,
        viscous=viscous,
    )


# Window fields: on a box rule every field of `_W`, `_PSI_X`, ... is a sum
# over vortices and terms of outer products X_a (x) Y_b of factor rows on
# the rule's two axes, so the (n, P) tables are matrix products of
# per-axis tables of the vortices, and nothing is evaluated node by node.
_INVISCID_VALUES = _value(_PSI_X) + _value(_PSI_Y) + _value(_W) + _value(_W_X) + _value(_W_Y)
_VISCOUS_VALUES = _INVISCID_VALUES + _value(_LAP_W)


class _PaddedRows(NamedTuple):
    """Rows of terms, each padded to K terms: each row's coefficient and
    the (rows, K) x factors, y factors and signs of its terms (sign 0
    pads)."""

    coefficient: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    signs: np.ndarray


@lru_cache(maxsize=16)
def _padded(rows) -> _PaddedRows:
    K = max(len(terms) for _, terms in rows)
    fx, fy = np.zeros((2, len(rows), K), dtype=int)
    signs = np.zeros((len(rows), K))
    for r, (_, terms) in enumerate(rows):
        for k, (sign, a, b) in enumerate(terms):
            signs[r, k], fx[r, k], fy[r, k] = sign, a, b
    return _PaddedRows(np.array([c for c, _ in rows]), fx, fy, signs)


class _Grid(NamedTuple):
    """The factor rows of one state on a box rule's axes, X and Y, each
    (8, n_vortices, n), and the row coefficients 1, A_v and
    A_v / L_v, (3, n_vortices)."""

    X: np.ndarray
    Y: np.ndarray
    coefficients: np.ndarray


def _grid(family, q, rule) -> _Grid:
    """One `axis_factors` call, on the rule's two axes (of equal length)
    stacked as one node set shared by all vortices."""
    fam = _require_stream_family(family)
    table = fam.axis_factors(np.stack(_require_axes(rule))[:, None], q)
    A, L, _, _ = fam.unpack(q)
    coefficients = np.array([np.ones_like(A), A, A / L])
    return _Grid(table[:, 0], table[:, 1], coefficients)


def _on_grid(grid: _Grid, rows, each_vortex: bool = False) -> np.ndarray:
    """The rows' fields at the rule's nodes (x-major).  Summed over the
    vortices, (rows, P): per row one (nx, n_vortices K)(n_vortices K, ny)
    product.  With `each_vortex`, every vortex's own, (n_vortices rows, P):
    per vortex and row one (nx, K)(K, ny) product, so the four rows of
    `_tangents` give the tangent table in parameter order."""
    rows = _padded(rows)
    R, K = rows.fx.shape
    nv, nx, ny = grid.X.shape[1], grid.X.shape[2], grid.Y.shape[2]
    scale = rows.signs[:, :, None] * grid.coefficients[rows.coefficient][:, None, :]
    left = grid.X[rows.fx] * scale[..., None]                 # (R, K, nv, nx)
    right = grid.Y[rows.fy]                                    # (R, K, nv, ny)
    if each_vortex:
        left = left.transpose(2, 0, 3, 1)                      # (nv, R, nx, K)
        right = right.transpose(2, 0, 1, 3)                    # (nv, R, K, ny)
    else:
        left = left.transpose(0, 3, 1, 2).reshape(R, nx, K * nv)
        right = right.reshape(R, K * nv, ny)
    return np.matmul(np.ascontiguousarray(left), np.ascontiguousarray(right)).reshape(-1, nx * ny)


def _window_flow(grid: _Grid, nu: float):
    """psi_x, psi_y, w and F = -u . grad w + nu lap w on the grid, with
    u = (psi_y, -psi_x)."""
    psi_x, psi_y, w, w_x, w_y, *lap_w = _on_grid(
        grid, _VISCOUS_VALUES if nu > 0 else _INVISCID_VALUES
    )
    F = psi_x * w_y - psi_y * w_x
    if nu > 0:
        F += nu * lap_w[0]
    return psi_x, psi_y, w, F


def vortex_window_fields(family, q, rule) -> tuple[np.ndarray, np.ndarray]:
    """psi and w = -lap psi at the nodes of a box rule."""
    psi, w = _on_grid(_grid(family, q, rule), _value(_PSI) + _value(_W))
    return psi, w


def vortex_window_vorticity(family, q, rule, nu: float):
    """w, F = w_t of the vorticity equation with viscosity nu, and each
    vortex's own vorticity A_v dw/dA_v, (n_vortices, P), at the nodes of a
    box rule: the tables of `Vorticity.evaluation` that a vorticity
    snapshot needs, without the three (n, P) tangent tables."""
    grid = _grid(family, q, rule)
    _, _, w, F = _window_flow(grid, nu)
    along_A = _on_grid(grid, _tangents(_W)[:1], each_vortex=True)
    return w, F, grid.coefficients[1][:, None] * along_A


class Vorticity(PdeModel):
    """w_t + u . grad w = nu lap w.  With `exact`, the projection integrates
    over the whole plane (`vortex_integrals`) and ignores the rule it is
    handed; otherwise it is the Galerkin projection on that rule, like every
    model's, and the rule must be a box rule."""

    def __init__(self, nu: float, exact: bool = False):
        if nu < 0:
            raise ValueError(f"viscosity nu = {nu} must be >= 0")
        self.nu = float(nu)
        self.exact = bool(exact)
        self.name = "vorticity"
        self.conserved = euler_invariants()

    def evaluation(self, family, q, rule):
        """The node bundle on a box rule, from one `axis_factors` call on its
        axes: the fields and their tangents are `_on_grid` tables of the
        declarations the exact projection reads."""
        grid = _grid(family, q, rule)
        psi_x, psi_y, w, F = _window_flow(grid, self.nu)
        return ModelEvaluation(
            field=w,
            tangents=_on_grid(grid, _tangents(_W), each_vortex=True),
            F=F,
            rule=rule,
            psi_x=psi_x,
            psi_y=psi_y,
            psi_x_tangents=_on_grid(grid, _tangents(_PSI_X), each_vortex=True),
            psi_y_tangents=_on_grid(grid, _tangents(_PSI_Y), each_vortex=True),
        )

    def projection(self, family, q, rule=None, quantities=()):
        if not self.exact:
            return super().projection(family, q, rule, quantities)
        ints = vortex_integrals(_require_stream_family(family), q, self.nu)
        return _project(family, q, ints, quantities, ints.M, ints.f)


def vorticity(nu: float, exact: bool = False) -> Vorticity:
    return Vorticity(nu, exact)


class KineticEnergy(ConservedQuantity):
    """I1 = 1/2 integral |u|^2 dA with u = (psi_y, -psi_x): by quadrature on
    a box rule, or exactly over the plane as a sum over vortex pairs in the
    exact projection's bundle."""

    name = "kinetic-energy"

    def value(self, family, q, rule=None):
        psi_x, psi_y = _on_grid(_grid(family, q, rule), _value(_PSI_X) + _value(_PSI_Y))
        return float(0.5 * np.sum(rule.weights * (psi_x**2 + psi_y**2)))

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
    """I2 = 1/2 integral w^2 dA with w = -lap psi: by quadrature on a box
    rule, or exactly over the plane as a sum over vortex pairs in the exact
    projection's bundle."""

    name = "enstrophy"

    def value(self, family, q, rule=None):
        (w,) = _on_grid(_grid(family, q, rule), _value(_W))
        return float(0.5 * np.sum(rule.weights * w**2))

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
