"""Domain types for two-machine scheduling with delivery times.

A problem instance is a set of jobs, each with an integer processing time
``p`` and an integer delivery time ``q``.  Jobs run on one of two identical
machines, consecutively from time 0, and every machine sequences its jobs
in non-increasing delivery-time order (the per-machine optimal order for
maximum lateness).  The two objectives, both minimized, are

* makespan ``cmax``: the larger of the two machine loads, and
* maximum lateness ``lmax``: the largest ``completion + q`` over all jobs.

A schedule is a plain tuple of machine flags, one per job in the
instance's sorted order, which is also the order each machine runs its
jobs in.  Flag 1 is the machine the first sorted job is pinned to; only
`io` maps flags to machine numbers and positions to job ids.

Everything here is an immutable value type; all operations are pure.
The solvers' dynamic-programming states are not model types: they live
in `exact.Layer` as int64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

# Loads, lateness values and prefix sums stay well inside int64 (the solver
# engine uses int64 arrays), so the sum of all p plus the largest q is
# capped at construction time.
MAX_MAGNITUDE = 2**60


class Job(NamedTuple):
    """One job: 1-based original input index, processing time, delivery time."""

    id: int
    p: int
    q: int


class ParetoPoint(NamedTuple):
    """One objective pair (makespan, maximum lateness)."""

    cmax: int
    lmax: int


@dataclass(frozen=True)
class Instance:
    """A normalized problem instance.

    Jobs are sorted by non-increasing delivery time, ties broken by
    ascending original id.  ``prefix[i]`` is the total processing time of
    the first ``i`` jobs in that order (``prefix[0] == 0``), ``total_p``
    the overall sum and ``q_max`` the largest delivery time.
    """

    jobs: tuple[Job, ...]
    n: int
    total_p: int
    q_max: int
    prefix: tuple[int, ...]


@dataclass(frozen=True)
class Front:
    """A Pareto front: points sorted by strictly increasing makespan.

    Sorted by increasing cmax, lateness is then strictly decreasing, so no
    point dominates another; the constructor rejects anything else.
    """

    points: tuple[ParetoPoint, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.points, self.points[1:]):
            if not (a.cmax < b.cmax and a.lmax > b.lmax):
                raise ValueError(f"not a Pareto front: {a} next to {b}")

    def __iter__(self) -> Iterator[ParetoPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> ParetoPoint:
        return self.points[i]

    @property
    def min_cmax(self) -> int:
        return self.points[0].cmax

    @property
    def min_lmax(self) -> int:
        return self.points[-1].lmax


def normalize(raw_jobs: Iterable[tuple[int, int]]) -> Instance:
    """Build a normalized Instance from (processing, delivery) pairs.

    Jobs are numbered 1..n in input order, then stably sorted by
    non-increasing delivery time.  Raises ValueError for an empty list,
    non-integer data, p < 1, q < 0, or magnitudes that would not leave
    int64 headroom for the solvers.
    """
    jobs = []
    for pos, (p, q) in enumerate(raw_jobs, start=1):
        if isinstance(p, bool) or isinstance(q, bool) or not isinstance(p, int) or not isinstance(q, int):
            raise ValueError(f"invalid job data at job {pos}: p and q must be integers")
        if p < 1:
            raise ValueError(f"invalid job data at job {pos}: processing time must be >= 1, got {p}")
        if q < 0:
            raise ValueError(f"invalid job data at job {pos}: delivery time must be >= 0, got {q}")
        jobs.append(Job(pos, p, q))
    if not jobs:
        raise ValueError("empty instance")

    jobs.sort(key=lambda j: (-j.q, j.id))

    prefix = [0]
    for job in jobs:
        prefix.append(prefix[-1] + job.p)
    total_p = prefix[-1]
    q_max = max(j.q for j in jobs)
    if total_p + q_max > MAX_MAGNITUDE:
        raise ValueError(
            f"instance magnitude too large: total processing plus max delivery "
            f"({total_p + q_max}) exceeds {MAX_MAGNITUDE}"
        )
    return Instance(
        jobs=tuple(jobs),
        n=len(jobs),
        total_p=total_p,
        q_max=q_max,
        prefix=tuple(prefix),
    )


def evaluate_schedule(inst: Instance, assignment: Sequence[int]) -> ParetoPoint:
    """Objective values of a full assignment.

    ``assignment[i]`` is the machine flag (0 or 1) of the i-th job in the
    instance's sorted order.  Jobs run back to back from time 0 on their
    machine, in that same order; a job's lateness is its completion time
    plus its delivery time.
    """
    if len(assignment) != inst.n:
        raise ValueError(f"assignment covers {len(assignment)} jobs, instance has {inst.n}")
    loads = [0, 0]
    worst_lateness = 0
    for job, flag in zip(inst.jobs, assignment):
        if flag not in (0, 1):
            raise ValueError(f"machine flag must be 0 or 1, got {flag!r}")
        loads[flag] += job.p
        lateness = loads[flag] + job.q
        if lateness > worst_lateness:
            worst_lateness = lateness
    return ParetoPoint(max(loads), worst_lateness)


def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """True iff a is no worse than b in both objectives and better in one."""
    return a.cmax <= b.cmax and a.lmax <= b.lmax and (a.cmax < b.cmax or a.lmax < b.lmax)

