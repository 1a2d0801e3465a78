"""Pseudo-spectral solver and bifurcation toolkit for the Swift-Hohenberg
equation u_t = -(I+Laplace)^2 u + lambda u + mu u^2 - u^3 on boxes with
dirichlet, odd-periodic or periodic boundary conditions."""

from .dynamics import (
    Params,
    RunReport,
    StepperConfig,
    basin_probe,
    integrate,
    lyapunov,
    step,
)
from .errors import (
    BandTooSmall,
    DegenerateQuadratic,
    DegenerateState,
    DomainMismatch,
    EigsNoConvergence,
    ExplicitDegeneracy,
    NoConvergence,
    NonFinite,
    ParseError,
    RangeError,
    ShbifError,
    SingularJacobian,
    UsageError,
)
from .harness import (
    ExperimentConfig,
    VerificationReport,
    default_config,
    parse_config,
    run_suite,
)
from .linear_analysis import (
    EigenSummary,
    eigenfunction,
    growth_rate,
    linear_symbol,
    principal,
)
from .reduced import (
    AmplitudePrediction,
    ReducedSystem,
    build_reduced,
    cubic_tensor,
    dirichlet_bifurcation_roots,
    gsh_fixed_points,
    gsh_reduced_flow,
    odd_periodic_flow,
    periodic_flow,
    predict_amplitudes,
    quadratic_tensor,
    reduced_fixed_points,
    slaved_mode_prediction,
    torus_points,
)
from .spectral import (
    BoundaryCondition,
    Domain,
    GridField,
    Mode,
    SpectralField,
    cube,
    inner,
    multiply,
    random_field,
    square,
    to_grid,
    to_spectral,
    translate,
    triple,
    write_csv_1d,
    write_pgm_2d,
)
from .steady import (
    Branch,
    SteadyState,
    continue_branch,
    find_all,
    index_sum,
    jacobian_apply,
    newton,
    orbit_distance,
    residual,
    stability,
)

__version__ = "0.1.0"
