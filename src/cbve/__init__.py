"""Two-type continuous-state branching processes in varying environments.

Construct cadlag coefficient bundles on a finite horizon, solve the
backward integral-equation systems for the cumulant and mean semigroups,
and cross-validate against exact stochastic simulation of the
finite-activity subclass.
"""
from .environment import (
    Environment,
    SpecialForm,
    ValidationReport,
    atom_load,
    bottlenecks,
    effective_cross_drift,
    finite_activity_approximation,
    last_bottleneck,
    special_to_general,
    validate,
)
from .errors import (
    AdmissibilityError,
    CBVEError,
    ConfigError,
    ConvergenceError,
    DiscretizationError,
    NumericalError,
)
from .mechanism import (
    compensated_jump_kernel,
    lipschitz_constants,
    mechanism_atom_increment,
    mechanism_increment,
    partially_compensated_jump_kernel,
    special_mechanism_increment,
)
from .measures import DiscreteSpatialMeasure, JumpMeasure, StieltjesMeasure, TimeGrid
from .moments import MomentSolution, finite_diff_check, mean_of_transition, solve_moment
from .simulator import MCEstimate, PathEvent, SeedSpec, mc_laplace, mc_mean, simulate_path
from .solver import (
    CumulantSolution,
    apriori_growth_exponent,
    check_flow,
    cumulant_upper_bound,
    gronwall_bound,
    h_transform_coefficients,
    h_transform_solution,
    solve_general,
    solve_special_picard,
)
from .config import RunConfig, emit_config, load_config, parse_config

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
