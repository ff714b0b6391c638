"""PDE right-hand sides F(u) on the ansatz, and conserved quantities I_k(q).

A model owns the map from the ansatz family to the evolved field.  For the
advection-diffusion and Schroedinger models the evolved field is the ansatz
itself; for the 2D vorticity model the ansatz prescribes the stream function
while the evolved field is the vorticity w = -lap psi, so the model supplies
both the field and its parameter tangents derived from psi.

`PdeModel.evaluation` is the one evaluation pass per parameter state: the
engine builds the metric tensor and forcing from its bundle, the constraint
gradients read the same bundle, and the integrator's recorder reuses the
reduced system built from it.

Conserved quantities expose a value and a gradient in parameter space.  The
wave-packet mass and energy use closed-form Gaussian moments (cross-checked
against quadrature in the tests); the fluid invariants are integrated on the
same quadrature rule the engine uses.  Their values are computed from the
family alone, as references; their gradients are taken under the integral
sign from the tables of the evaluation bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzFamily, VortexStreamFunction
from .hilbert import QuadratureRule

__all__ = [
    "ModelEvaluation",
    "PdeModel",
    "ConservedQuantity",
    "AdvectionDiffusion",
    "Nlse",
    "Vorticity",
    "advection_diffusion",
    "nlse",
    "vorticity",
    "nlse_invariants",
    "euler_invariants",
]


@dataclass(frozen=True, eq=False)
class ModelEvaluation:
    """Everything one parameter state contributes, on one rule's nodes.

    The engine forms the metric tensor and the forcing from `tangents`, `F`
    and the rule's weights, and `engine.residual` reuses them for the
    instantaneous error.  `ConservedQuantity.gradient` reads the bundle
    instead of evaluating the family again: stream-function models also
    fill in psi_x, psi_y (the velocity is (psi_y, -psi_x)) and their
    parameter tangents for the kinetic-energy gradient.
    """

    field: np.ndarray        # (P,)
    tangents: np.ndarray     # (n, P)
    F: np.ndarray            # (P,)
    rule: QuadratureRule
    psi_x: np.ndarray | None = None            # (P,)
    psi_y: np.ndarray | None = None            # (P,)
    psi_x_tangents: np.ndarray | None = None   # (n, P)
    psi_y_tangents: np.ndarray | None = None   # (n, P)


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

    #: conserved quantities this model can enforce (may be empty)
    conserved: tuple = ()


class ConservedQuantity:
    """A functional I(q) with its parameter gradient.

    `value` takes the quadrature rule so that quantities evaluated by
    quadrature use exactly the nodes of the reduced system they constrain.
    `gradient` takes the model evaluation at q (closed forms ignore it).
    """

    name: str = "invariant"

    def value(self, family: AnsatzFamily, q, rule: QuadratureRule) -> float:
        raise NotImplementedError

    def gradient(self, family: AnsatzFamily, q, evaluation: ModelEvaluation) -> np.ndarray:
        raise NotImplementedError


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
_TANGENT_ORDERS = ((2, 0), (0, 2), (1, 0), (0, 1))


class Vorticity(PdeModel):
    def __init__(self, nu: float):
        if nu < 0:
            raise ValueError(f"viscosity nu = {nu} must be >= 0")
        self.nu = float(nu)
        self.name = "vorticity"
        self.conserved = euler_invariants()

    def apply_F(self, family, q, rule):
        return self.evaluation(family, q, rule).F

    def evaluation(self, family, q, rule):
        fam = _require_stream_family(family)
        orders = _INVISCID_ORDERS + (_VISCOUS_ORDERS if self.nu > 0 else ())
        psi, dpsi = fam.terms(rule.nodes, q, orders, _TANGENT_ORDERS)
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


def vorticity(nu: float) -> Vorticity:
    return Vorticity(nu)


class KineticEnergy(ConservedQuantity):
    """I1 = 1/2 integral |u|^2 dA with u = (psi_y, -psi_x), by quadrature."""

    name = "kinetic-energy"

    def value(self, family, q, rule):
        fam = _require_stream_family(family)
        psi, _ = fam.terms(rule.nodes, q, ((1, 0), (0, 1)), ())
        return float(0.5 * np.sum(rule.weights * (psi[1, 0] ** 2 + psi[0, 1] ** 2)))

    def gradient(self, family, q, evaluation):
        ev, w = evaluation, evaluation.rule.weights
        return ev.psi_x_tangents @ (w * ev.psi_x) + ev.psi_y_tangents @ (w * ev.psi_y)


class Enstrophy(ConservedQuantity):
    """I2 = 1/2 integral w^2 dA with w = -lap psi, by quadrature."""

    name = "enstrophy"

    def value(self, family, q, rule):
        fam = _require_stream_family(family)
        psi, _ = fam.terms(rule.nodes, q, ((2, 0), (0, 2)), ())
        return float(0.5 * np.sum(rule.weights * (psi[2, 0] + psi[0, 2]) ** 2))

    def gradient(self, family, q, evaluation):
        return evaluation.tangents @ (evaluation.rule.weights * evaluation.field)


def euler_invariants() -> tuple[KineticEnergy, Enstrophy]:
    """Kinetic energy and enstrophy of 2D incompressible flow."""
    return (KineticEnergy(), Enstrophy())
