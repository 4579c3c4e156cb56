"""Blow-up certificates and numerics for semilinear Klein-Gordon equations
in FLRW spacetimes: background evaluation, hypothesis checking, lifespan
bounds, comparison-ODE integration, and a radial method-of-lines solver."""

from .certificate import (
    TheoremInputs,
    certify,
    check_N,
    compute_A,
    compute_B,
    cone_ball_factor,
    corollary_case_check,
    unit_ball_volume,
)
from .cone import ConeGeometry, Monotonicity, classify_q, comoving_radius
from .cosmology import (
    CosmologyParams,
    MassTag,
    classify_mass_behavior,
    curved_mass_sq,
    scale_eval,
)
from .errors import (
    ConfigurationError,
    DomainError,
    ExcludedRegionError,
    PoleError,
    PreconditionError,
)
from .integrate import TerminationReason
from .ode import check_lemma21, detect_blowup_time, envelope, envelope_pole
from .ode import integrate as integrate_ode
from .pde import (
    make_field,
    observable_w,
    run_pde,
    support_radius,
)

__version__ = "0.1.0"

# The stencil has one implementation, in NumPy; the name stays because
# benchmark reports record it in their environment block.
kernel_backend = "python"
