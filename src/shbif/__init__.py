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
    write_csv_1d,
    write_pgm_2d,
)
from .linear_analysis import (
    EigenSummary,
    eigenfunction,
    growth_rate,
    principal,
)
from .reduced import (
    ReducedSystem,
    build_reduced,
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
)
from .steady import (
    SteadyState,
    find_all,
    index_sum,
    jacobian_apply,
    newton,
    orbit_distance,
    residual,
    stability,
)

__version__ = "0.1.0"
