"""Output checks for every benchmark operation.

Each check returns a list of problems; an operation with any problem,
a non-zero exit code or an exception counts as failed.  Fronts are
compared in exact integers, ratios as `fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from bipareto import (
    ORACLE_CAP,
    coverage_check,
    dominates,
    evaluate_schedule,
    io,
)
from bipareto.model import Front, Instance


def check_witnesses(
    inst: Instance, front_text: str, schedules_text: str
) -> tuple[Optional[Front], list[str]]:
    """Parse both CSVs back; every witness must evaluate to its front point."""
    try:
        front = io.parse_front_csv(front_text)
        machines = io.parse_schedules_csv(schedules_text)
    except ValueError as exc:
        return None, [f"written CSV does not parse: {exc}"]
    problems = []
    if sorted(machines) != list(range(len(front))):
        problems.append(
            f"schedules name points {sorted(machines)}, front has {len(front)} points"
        )
    for index, point in enumerate(front):
        if index not in machines:
            continue
        try:
            got = evaluate_schedule(inst, io.assignment_to_flags(inst, machines[index]))
        except ValueError as exc:
            problems.append(f"point {index}: invalid witness: {exc}")
            continue
        if got != point:
            problems.append(
                f"point {index}: witness evaluates to {tuple(got)}, front says {tuple(point)}"
            )
    return front, problems


def check_exact_vs_approx(exact: Front, approx: Front, eps: Fraction) -> list[str]:
    """The approximate front (1+eps)-covers the exact one and beats none of it."""
    problems = []
    if len(exact) == 0 or len(approx) == 0:
        return [f"empty front (exact {len(exact)}, approximate {len(approx)} points)"]
    if not coverage_check(exact, approx, eps):
        problems.append(f"approximate front does not (1+{eps})-cover the exact front")
    for a in approx:
        beaten = [tuple(e) for e in exact if dominates(a, e)]
        if beaten:
            problems.append(f"approximate point {tuple(a)} dominates exact points {beaten}")
    return problems


def check_verify(inst: Instance, stdout: str) -> list[str]:
    """Three checks reported, none FAIL; the oracle runs exactly when n <= cap."""
    lines = stdout.splitlines()
    problems = [f"verify printed {line!r}" for line in lines if line.startswith("FAIL")]
    names = [line.split(":", 1)[0] for line in lines]
    oracle = "PASS oracle-equality" if inst.n <= ORACLE_CAP else "SKIP oracle-equality"
    expected = [oracle, "PASS coverage", "PASS trim-closeness"]
    if names != expected:
        problems.append(f"verify reported {names}, expected {expected}")
    return problems
