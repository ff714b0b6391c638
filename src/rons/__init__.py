"""Reduced-order nonlinear solutions.

Evolve the time-dependent parameters of a nonlinear solution ansatz so that
the instantaneous mismatch between the ansatz dynamics and the PDE dynamics
is minimized, optionally while conserving chosen invariants of the PDE
exactly along the reduced trajectory.
"""

from .ansatz import (
    AnsatzFamily,
    GaussianWavePacket,
    HeatKernel,
    LinearModes,
    Mode,
    SineWave,
    VortexStreamFunction,
    fourier_modes,
)
from .engine import (
    FitResult,
    MetricTensor,
    ReducedSystem,
    ResidualReport,
    assemble,
    fit_initial,
    reduced_rhs,
    residual,
)
from .errors import (
    AlignmentError,
    BlowupError,
    CollisionError,
    DependentConstraintsError,
    DomainError,
    FitError,
    ImmersionError,
    IntegrationAbort,
    RonsError,
)
from .hilbert import (
    Domain,
    QuadratureRule,
    inner_product,
    make_rule,
    norm_sq,
    periodic_interval,
    plane,
    real_line,
)
from .integrate import IntegratorConfig, Trajectory, integrate
from .models import (
    AdvectionDiffusion,
    ConservedQuantity,
    Nlse,
    PdeModel,
    Vorticity,
    advection_diffusion,
    euler_invariants,
    nlse,
    nlse_invariants,
    vorticity,
)

__version__ = "0.1.0"
