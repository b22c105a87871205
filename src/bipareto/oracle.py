"""Brute-force Pareto front by enumerating every two-machine assignment.

Independent of the layered solvers: it imports nothing from `exact` or
`fptas` and scores every one of the 2^(n-1) assignments itself.  Job 1
(the job with the largest delivery time) is pinned to machine flag 1,
since swapping the machines changes neither objective.

The enumeration doubles a table of partial assignments once per job:
rows ``[m, 2m)`` copy rows ``[0, m)`` and put the job on flag 0, then
rows ``[0, m)`` put it on flag 1 in place.  Each row holds the loads of
both machines and the running maximum lateness as int64, which is exact
because `normalize` caps ``P + q_max`` at 2^60.  The three columns take
about 3 * 8 * 2^(n-1) bytes, 12.6 MB at the cap.  Exponential by
construction, so it refuses instances above ``ORACLE_CAP`` jobs; its
only role is checking the solvers on small inputs.

Only the rows inside the front's ideal-nadir box are sorted.  The front
runs from ``(c_min, l_hi)`` to ``(c_hi, l_min)``: ``c_min`` is the
smallest makespan and ``l_hi`` the smallest lateness among the rows that
reach it, ``l_min`` the smallest lateness and ``c_hi`` the smallest
makespan among the rows that reach that.  A row with ``cmax > c_hi`` is
dominated by the end ``(c_hi, l_min)``, and one with ``lmax > l_hi`` by
``(c_min, l_hi)``, so dropping both kinds leaves the front unchanged and
replaces a sort of every row by a few linear passes.
"""

from __future__ import annotations

import numpy as np

from .model import Front, Instance, ParetoPoint

ORACLE_CAP = 20


def enumerate_front(inst: Instance) -> Front:
    """Exact Pareto front by exhaustive enumeration.

    Raises ValueError when ``inst.n`` exceeds ``ORACLE_CAP``.
    """
    if inst.n > ORACLE_CAP:
        raise ValueError(
            f"instance too large for oracle: n={inst.n} exceeds cap {ORACLE_CAP}"
        )
    rows = 1 << (inst.n - 1)
    on_1 = np.empty(rows, dtype=np.int64)  # load of machine flag 1
    on_0 = np.empty(rows, dtype=np.int64)  # load of machine flag 0
    lmax = np.empty(rows, dtype=np.int64)
    first = inst.jobs[0]
    on_1[0], on_0[0], lmax[0] = first.p, 0, first.p + first.q
    m = 1
    for job in inst.jobs[1:]:
        low, high = slice(0, m), slice(m, 2 * m)
        on_1[high] = on_1[low]
        np.add(on_0[low], job.p, out=on_0[high])
        np.maximum(lmax[low], on_0[high] + job.q, out=lmax[high])
        on_1[low] += job.p
        np.maximum(lmax[low], on_1[low] + job.q, out=lmax[low])
        m *= 2

    cmax = np.maximum(on_1, on_0, out=on_1)
    # the front's ends (c_min, l_hi) and (c_hi, l_min) bound the box
    c_min, l_min = cmax.min(), lmax.min()
    l_hi = lmax[cmax == c_min].min()
    c_hi = cmax[lmax == l_min].min()
    box = (cmax <= c_hi) & (lmax <= l_hi)
    cmax, lmax = cmax[box], lmax[box]
    order = np.lexsort((lmax, cmax))
    cmax, lmax = cmax[order], lmax[order]
    # sorted by (cmax, lmax): a row is on the front iff its lateness is
    # below every earlier row's, which also keeps one row per cmax
    keep = np.ones(cmax.size, dtype=bool)
    keep[1:] = lmax[1:] < np.minimum.accumulate(lmax)[:-1]
    return Front(
        tuple(
            ParetoPoint(c, l)
            for c, l in zip(cmax[keep].tolist(), lmax[keep].tolist())
        )
    )
