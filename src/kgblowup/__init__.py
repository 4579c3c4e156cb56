"""Blow-up certificates and numerics for semilinear Klein-Gordon equations
in FLRW spacetimes: background evaluation, hypothesis checking, lifespan
bounds, comparison-ODE integration, and a radial method-of-lines solver."""

from .certificate import (
    BlowupCertificate,
    TheoremInputs,
    certify,
    check_N,
    compute_A,
    compute_B,
    cone_ball_factor,
    corollary_case_check,
    data_thresholds,
    lifespan,
    unit_ball_volume,
)
from .cone import (
    ConeGeometry,
    Monotonicity,
    classify_q,
    comoving_radius,
    q_eval,
    q_tilde_eval,
)
from .cosmology import (
    CosmologyParams,
    MassBehavior,
    MassTag,
    classify_mass_behavior,
    curved_mass_sq,
    horizon_end,
    mass_sign_change_time,
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
from .ode import (
    OdeControls,
    OdeTrajectory,
    check_lemma21,
    detect_blowup_time,
    envelope,
    envelope_pole,
)
from .ode import integrate as integrate_ode
from .pde import (
    InitialData,
    PdeControls,
    PdeField,
    PdeRun,
    cone_containment_check,
    evolve,
    make_field,
    make_initial_data,
    observable_w,
    run_pde,
    support_radius,
)
from .scenario import Scenario, ScenarioError, load_scenario, load_sweep_spec

__version__ = "0.1.0"

# The stencil has one implementation, in NumPy; the name stays because
# benchmark reports record it in their environment block.
kernel_backend = "python"

__all__ = [
    "kernel_backend",
    "BlowupCertificate",
    "TheoremInputs",
    "certify",
    "check_N",
    "compute_A",
    "compute_B",
    "cone_ball_factor",
    "corollary_case_check",
    "data_thresholds",
    "lifespan",
    "unit_ball_volume",
    "ConeGeometry",
    "Monotonicity",
    "classify_q",
    "comoving_radius",
    "q_eval",
    "q_tilde_eval",
    "CosmologyParams",
    "MassBehavior",
    "MassTag",
    "classify_mass_behavior",
    "curved_mass_sq",
    "horizon_end",
    "mass_sign_change_time",
    "scale_eval",
    "ConfigurationError",
    "DomainError",
    "ExcludedRegionError",
    "PoleError",
    "PreconditionError",
    "TerminationReason",
    "OdeControls",
    "OdeTrajectory",
    "check_lemma21",
    "detect_blowup_time",
    "envelope",
    "envelope_pole",
    "integrate_ode",
    "InitialData",
    "PdeControls",
    "PdeField",
    "PdeRun",
    "cone_containment_check",
    "evolve",
    "make_field",
    "make_initial_data",
    "observable_w",
    "run_pde",
    "support_radius",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "load_sweep_spec",
    "__version__",
]
