"""Exact Pareto front via a layered dynamic program.

Jobs are added one at a time in the instance's sorted order.  Layer ``i``
holds one state per load ``C`` of the most-loaded machine reachable with
the first ``i`` jobs: the one with the smallest maximum lateness ``L``.
Both children of a state are generated: put job ``i`` on the most-loaded
machine, or on the other one (which may or may not overtake the load
lead).  The first job is pinned to machine flag 1, halving the search
space at no cost since machines are identical.

The paper's state is the triple (most-loaded machine flag, L, C).  The
flag is dropped here: the machines are identical, so the loads
``(C, S_i - C)`` and ``L`` fix every future child, and the flag of each
job is recovered afterwards by replaying the same/other choices along the
parent chain.  Keying on ``(flag, C)`` would keep up to twice the states
for the same front.

Both solvers reduce every layer by one rule: per load box
``floor(C / width)``, keep the state with the smallest lateness ``L``.
The exact solver's boxes have width 1, one per integer load; the trimming
solver in `fptas` widens them to ``delta1``.  Tie-break: among children
with the same box and lateness, the earliest generated wins.  Children
are generated parent by parent in ascending parent load, the
same-machine child before the other-machine child, so the winner has the
smallest parent load, then the same-machine choice.  Winners are kept in
ascending box order, so every layer either solver builds is in strictly
ascending load order.

A `Layer` is the engine's own representation: parallel int64 arrays
``lmax``, ``cmax`` and ``origin``.  ``origin[j]`` is the index in the
layer's successor pool that state ``j`` won from, so its parent is
state ``origin[j] >> 1`` of the previous layer and its choice
``origin[j] & 1``.  With ``keep_layers=True`` the solver keeps a
reference to every layer it builds, 24 bytes per state.

This engine is the only copy of the recurrence in the package.  The
test suite checks its layers, parents and tie-breaks against a
plain-integer reference, and for small ``n`` each layer against brute
force over the assignments of the job prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import Front, Instance, ParetoPoint, Schedule, build_schedule

# The values are also the parity of a child's successor-pool index.
CHOICE_SAME = 0
CHOICE_OTHER = 1

# Live retained states across all layers (parent chains keep them alive).
DEFAULT_STATE_BUDGET = 50_000_000

_INT64_MAX = 2**63 - 1


class StateBudgetError(RuntimeError):
    """Raised when a solve would retain more states than allowed."""


@dataclass(frozen=True, eq=False)
class Layer:
    """States kept after processing the first ``i`` jobs, as int64 arrays.

    State ``j`` has lateness ``lmax[j]`` and most-loaded machine load
    ``cmax[j]``; ``origin[j]`` is the successor-pool index it won from
    (parent ``origin[j] >> 1``, choice ``origin[j] & 1``), -1 at layer 1.
    Both solvers keep states in strictly ascending ``cmax``.
    """

    i: int
    lmax: np.ndarray
    cmax: np.ndarray
    origin: np.ndarray

    def __len__(self) -> int:
        return len(self.cmax)


@dataclass(frozen=True)
class SolveResult:
    """A Pareto front plus one realizing schedule per front point.

    ``schedules[j]`` evaluates exactly to ``front.points[j]``.
    ``layer_sizes[i-1]`` is the retained state count of layer ``i``;
    ``layers`` carries every layer's arrays only when the solver ran with
    ``keep_layers=True`` (about 24 bytes per retained state).
    """

    front: Front
    schedules: tuple[Schedule, ...]
    layer_sizes: tuple[int, ...]
    layers: Optional[tuple[Layer, ...]] = None


# ---------------------------------------------------------------------------
# Vectorized layer engine (shared with the trimming solver in fptas.py)
# ---------------------------------------------------------------------------


@dataclass
class _Successors:
    """All children of one layer, in generation order.

    Child 2j is the same-machine child of parent j, child 2j+1 its
    other-machine child.  A child's pool index is therefore its generation
    rank, ``index >> 1`` its parent and ``index & 1`` its choice
    (CHOICE_SAME / CHOICE_OTHER).
    """

    lmax: np.ndarray
    cmax: np.ndarray


def _initial_arrays(inst: Instance) -> Layer:
    first = inst.jobs[0]
    return Layer(
        i=1,
        lmax=np.array([first.p + first.q], dtype=np.int64),
        cmax=np.array([first.p], dtype=np.int64),
        origin=np.array([-1], dtype=np.int64),
    )


def _expand(layer: Layer, p: int, q: int, prefix_total: int) -> _Successors:
    m = len(layer)
    lmax = np.empty(2 * m, dtype=np.int64)
    cmax = np.empty(2 * m, dtype=np.int64)

    np.maximum(layer.lmax, layer.cmax + (p + q), out=lmax[0::2])
    np.add(layer.cmax, p, out=cmax[0::2])

    other_load = prefix_total - layer.cmax
    np.maximum(layer.lmax, other_load + q, out=lmax[1::2])
    np.maximum(layer.cmax, other_load, out=cmax[1::2])
    return _Successors(lmax=lmax, cmax=cmax)


def _min_lmax_per_key(key: np.ndarray, lmax: np.ndarray) -> np.ndarray:
    """Pool index of the smallest-``lmax`` element per distinct ``key``,
    ties to the smallest index, in ascending key order.

    lexsort is stable, so equal (key, lmax) pairs keep pool order, which
    is generation order.
    """
    order = np.lexsort((lmax, key))
    sorted_key = key[order]
    is_first = np.empty(len(order), dtype=bool)
    is_first[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=is_first[1:])
    return order[is_first]


def _take(pool: _Successors, winners: np.ndarray, i: int) -> Layer:
    return Layer(i=i, lmax=pool.lmax[winners], cmax=pool.cmax[winners], origin=winners)


def _load_box_winners(pool: _Successors, width: Fraction, total_p: int) -> np.ndarray:
    """Pool indices of the states kept from ``pool``: per load box
    floor(C / width), the smallest ``lmax``, ties to the earliest
    generated, in ascending box order.

    A width of at most 1 gives every integer load its own box, so the load
    itself is the key.  Wider boxes are keyed in int64 when the scaled
    loads (at most ``total_p * den``) fit, and otherwise in object arrays
    of exact Python integers; both dtypes run the same sort.
    """
    num, den = width.numerator, width.denominator
    key = pool.cmax
    if num > den:
        if num > _INT64_MAX or total_p * den > _INT64_MAX:
            key = key.astype(object)
        key = key * den // num
    return _min_lmax_per_key(key, pool.lmax)


def _replay_choices(inst: Instance, choices: Sequence[int]) -> tuple[int, ...]:
    """Turn a per-job choice chain into absolute machine flags.

    ``choices[i-2]`` says whether sorted job ``i`` went onto the currently
    most-loaded machine or the other one; replaying the loads forward
    resolves those relative choices into flags, with job 1 on flag 1.
    """
    loads = [0, 0]
    loads[1] = inst.jobs[0].p
    current_k = 1
    flags = [1]
    for i, choice in enumerate(choices, start=2):
        p = inst.jobs[i - 1].p
        if choice == CHOICE_SAME:
            flags.append(current_k)
            loads[current_k] += p
        else:
            target = 1 - current_k
            flags.append(target)
            new_load = loads[target] + p
            if loads[current_k] < new_load:
                current_k = target
            loads[target] = new_load
    return tuple(flags)


def _pareto_of_final(layer: Layer) -> tuple[list[ParetoPoint], list[int]]:
    """Non-dominated (cmax, lmax) points of the final layer.

    Returns the points sorted by increasing cmax and, per point, the index
    of its witness state.
    """
    # The layer holds one state per load, in ascending load, so a state is
    # non-dominated iff its lmax is below that of every smaller load.
    keep = np.empty(len(layer), dtype=bool)
    keep[0] = True
    np.less(layer.lmax[1:], np.minimum.accumulate(layer.lmax)[:-1], out=keep[1:])
    witnesses = np.flatnonzero(keep)
    points = [
        ParetoPoint(c, l)
        for c, l in zip(layer.cmax[witnesses].tolist(), layer.lmax[witnesses].tolist())
    ]
    return points, witnesses.tolist()


def _solve_layered(
    inst: Instance,
    width: Fraction,
    budget: int,
    keep_layers: bool,
) -> SolveResult:
    """Shared layer loop: expand, keep one state per load box of ``width``,
    track parents, reconstruct."""
    if budget < 1:
        raise ValueError("state budget must be positive")

    current = _initial_arrays(inst)
    chain: list[np.ndarray] = [current.origin]
    layer_sizes = [1]
    retained = 1

    kept_layers: Optional[list[Layer]] = [current] if keep_layers else None

    for i in range(2, inst.n + 1):
        if retained + 2 * len(current) > budget:
            raise StateBudgetError(
                f"state budget exceeded: layer {i} needs up to "
                f"{retained + 2 * len(current)} live states (budget {budget})"
            )
        job = inst.jobs[i - 1]
        pool = _expand(current, job.p, job.q, inst.prefix[i])
        current = _take(pool, _load_box_winners(pool, width, inst.total_p), i)
        chain.append(current.origin)
        layer_sizes.append(len(current))
        retained += len(current)
        if kept_layers is not None:
            kept_layers.append(current)

    points, witnesses = _pareto_of_final(current)
    schedules = []
    for w in witnesses:
        choices: list[int] = []
        idx = w
        for layer_idx in range(inst.n - 1, 0, -1):
            origin = int(chain[layer_idx][idx])
            choices.append(origin & 1)
            idx = origin >> 1
        choices.reverse()
        schedules.append(build_schedule(inst, _replay_choices(inst, choices)))

    return SolveResult(
        front=Front(tuple(points)),
        schedules=tuple(schedules),
        layer_sizes=tuple(layer_sizes),
        layers=tuple(kept_layers) if kept_layers is not None else None,
    )


def solve_exact(
    inst: Instance,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
    keep_layers: bool = False,
) -> SolveResult:
    """Exact Pareto front of (makespan, maximum lateness).

    Runs the layered recurrence keeping one state per load (load boxes
    of width 1) and returns every non-dominated objective pair together
    with a schedule realizing it.
    Raises StateBudgetError instead of exhausting memory when the
    retained state count would exceed ``budget``.
    """
    return _solve_layered(inst, Fraction(1), budget, keep_layers)
