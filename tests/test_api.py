from types import ModuleType

import bipareto

PUBLIC_API = [
    "ClosenessViolation",
    "DEFAULT_STATE_BUDGET",
    "Front",
    "GenSpec",
    "GridParams",
    "Instance",
    "Job",
    "Layer",
    "MAX_MAGNITUDE",
    "ORACLE_CAP",
    "ParetoPoint",
    "SolveResult",
    "StateBudgetError",
    "__version__",
    "box_index",
    "coverage_check",
    "dominates",
    "enumerate_front",
    "evaluate_schedule",
    "exact_layers",
    "find_closeness_violation",
    "find_coverage_violation",
    "generate_instance",
    "grid_params",
    "normalize",
    "quality_metrics",
    "run_suite",
    "solve_exact",
    "solve_fptas",
    "trimmed_layers",
    "write_report",
]


def test_public_api_is_pinned():
    # adding to or removing from the public API has to update this list
    assert sorted(bipareto.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(bipareto, name) is not None
    # nothing public is importable from the package without being listed
    exported = {
        name
        for name, value in vars(bipareto).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == set(PUBLIC_API) - {"__version__"}
