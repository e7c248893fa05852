"""Finite-volume laboratory for semilinear elliptic problems with
measure data: truncation and mollification limits, reduced-measure
extraction, measure calculus, and discrete capacities."""

from .grids import Grid, GridFunction, LinearOperator, build_grid, negative_laplacian
from .measures import DiscreteMeasure, tv_distance
from .nonlinearities import (
    Nonlinearity,
    make_exponential,
    make_power,
    make_two_sided_exponential,
)
from .solver import SolveReport, assemble_rhs, solve_semilinear
from .reduction import (
    ReducedResult,
    mollification_schedule,
    reduce_by_mollification,
    reduce_by_truncation,
    reduce_signed,
    truncation_schedule,
)
from .capacity import (
    CompactSet,
    ball_set,
    cap_h1,
    construct_psi,
    point_set,
)
from .config import ConfigError, ExperimentConfig
from .verify import (
    CheckResult,
    calculus_check,
    check_apriori_estimates,
    compare_solutions,
    oracle_reduced,
    run_all,
    run_suite,
    weak_l1_stability_experiment,
)

__version__ = "0.1.0"

# recorded with every benchmark run; the kernels are plain numpy/scipy
USING_NUMBA = False

__all__ = [
    "Grid",
    "GridFunction",
    "LinearOperator",
    "build_grid",
    "negative_laplacian",
    "DiscreteMeasure",
    "tv_distance",
    "Nonlinearity",
    "make_power",
    "make_exponential",
    "make_two_sided_exponential",
    "SolveReport",
    "assemble_rhs",
    "solve_semilinear",
    "check_apriori_estimates",
    "compare_solutions",
    "ReducedResult",
    "truncation_schedule",
    "mollification_schedule",
    "reduce_by_truncation",
    "reduce_by_mollification",
    "reduce_signed",
    "oracle_reduced",
    "calculus_check",
    "weak_l1_stability_experiment",
    "CompactSet",
    "point_set",
    "ball_set",
    "cap_h1",
    "construct_psi",
    "ConfigError",
    "ExperimentConfig",
    "CheckResult",
    "run_suite",
    "run_all",
    "__version__",
]
