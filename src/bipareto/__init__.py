"""Exact and (1+eps)-approximate Pareto fronts for two-machine scheduling.

Jobs with integer processing times and delivery times run on two
identical parallel machines; the objectives are makespan and maximum
lateness.  `solve_exact` enumerates the exact Pareto front by a layered
dynamic program over job prefixes, `solve_fptas` trims each layer onto
an exact rational grid for a (1+eps) coverage guarantee, and both
reconstruct a witness schedule per front point.  `exact_layers` and
`trimmed_layers` yield the same solves' layers one at a time.
"""

from .bench import (
    GenSpec,
    generate_instance,
    quality_metrics,
    run_suite,
    write_report,
)
from .exact import (
    DEFAULT_STATE_BUDGET,
    Layer,
    SolveResult,
    StateBudgetError,
    box_index,
    exact_layers,
    solve_exact,
)
from .fptas import (
    ClosenessViolation,
    GridParams,
    coverage_check,
    find_closeness_violation,
    find_coverage_violation,
    grid_params,
    solve_fptas,
    trimmed_layers,
)
from .model import (
    MAX_MAGNITUDE,
    Front,
    Instance,
    Job,
    ParetoPoint,
    dominates,
    evaluate_schedule,
    normalize,
)
from .oracle import ORACLE_CAP, enumerate_front

__version__ = "0.1.0"

__all__ = [
    "MAX_MAGNITUDE",
    "DEFAULT_STATE_BUDGET",
    "ORACLE_CAP",
    "Job",
    "ParetoPoint",
    "Instance",
    "Front",
    "Layer",
    "SolveResult",
    "StateBudgetError",
    "GridParams",
    "ClosenessViolation",
    "GenSpec",
    "normalize",
    "evaluate_schedule",
    "dominates",
    "solve_exact",
    "exact_layers",
    "grid_params",
    "box_index",
    "solve_fptas",
    "trimmed_layers",
    "coverage_check",
    "find_coverage_violation",
    "find_closeness_violation",
    "enumerate_front",
    "generate_instance",
    "quality_metrics",
    "run_suite",
    "write_report",
    "__version__",
]
