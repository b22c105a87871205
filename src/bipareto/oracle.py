"""Brute-force Pareto front by enumerating every two-machine assignment.

Independent of the layered solvers: it scores each of the 2^(n-1)
assignments with `evaluate_schedule` and filters dominated points.  Job
1 (the job with the largest delivery time) is pinned to one machine,
since swapping the machines changes neither objective.  Exponential by
construction, so it refuses instances above a small size cap; its only
role is checking the solvers on small inputs.
"""

from __future__ import annotations

from .model import Front, Instance, evaluate_schedule, pareto_filter

ORACLE_CAP = 20


def enumerate_front(inst: Instance) -> Front:
    """Exact Pareto front by exhaustive enumeration.

    Raises ValueError when ``inst.n`` exceeds ``ORACLE_CAP``.
    """
    if inst.n > ORACLE_CAP:
        raise ValueError(
            f"instance too large for oracle: n={inst.n} exceeds cap {ORACLE_CAP}"
        )
    n = inst.n
    flags = [1] * n
    points = []
    for bits in range(1 << (n - 1)):
        for j in range(1, n):
            flags[j] = (bits >> (j - 1)) & 1
        points.append(evaluate_schedule(inst, flags))
    return pareto_filter(points)
