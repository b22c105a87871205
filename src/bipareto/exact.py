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

The engine is one loop over plain int64 arrays: a layer is ``lmax``,
``cmax`` and ``origin``.  ``origin[j]`` is the index in the layer's
successor pool that state ``j`` won from, so its parent is state
``origin[j] >> 1`` of the previous layer and its choice ``origin[j] & 1``
(0: same machine, 1: other machine).  The list of ``origin`` arrays is
the only parent chain, 8 bytes per retained state.  The box key (the
load itself for width 1, otherwise ``floor(C / width)`` in int64, or in
exact Python integers when the scaled loads could pass int64) depends
only on the width and ``P``, so it is chosen once per solve; one reducer
serves all three kinds.  With ``keep_layers=True`` the solver also wraps
each layer's arrays in a `Layer` and keeps it, 24 bytes per state.

This engine is the only copy of the recurrence in the package.  The
test suite checks its layers, parents and tie-breaks against a
plain-integer reference, and for small ``n`` each layer against brute
force over the assignments of the job prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .model import Front, Instance, ParetoPoint

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

    ``schedules[j]`` is a tuple of machine flags, ``schedules[j][k]`` the
    flag (0 or 1) of ``inst.jobs[k]``, with the first job on flag 1; it
    evaluates exactly to ``front.points[j]``.
    ``layer_sizes[i-1]`` is the retained state count of layer ``i``;
    ``layers`` carries every layer's arrays only when the solver ran with
    ``keep_layers=True`` (about 24 bytes per retained state).
    """

    front: Front
    schedules: tuple[tuple[int, ...], ...]
    layer_sizes: tuple[int, ...]
    layers: Optional[tuple[Layer, ...]] = None


# ---------------------------------------------------------------------------
# Vectorized layer engine (shared with the trimming solver in fptas.py)
# ---------------------------------------------------------------------------


def _expand(
    lmax: np.ndarray, cmax: np.ndarray, p: int, q: int, prefix_total: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(lmax, cmax)`` of all children of a layer, in generation order.

    Child 2j is the same-machine child of parent j, child 2j+1 its
    other-machine child, so a child's pool index is its generation rank,
    ``index >> 1`` its parent and ``index & 1`` its choice.
    """
    m = len(cmax)
    child_lmax = np.empty(2 * m, dtype=np.int64)
    child_cmax = np.empty(2 * m, dtype=np.int64)

    np.maximum(lmax, cmax + (p + q), out=child_lmax[0::2])
    np.add(cmax, p, out=child_cmax[0::2])

    other_load = prefix_total - cmax
    np.maximum(lmax, other_load + q, out=child_lmax[1::2])
    np.maximum(cmax, other_load, out=child_cmax[1::2])
    return child_lmax, child_cmax


def _box_key(width: Fraction, total_p: int) -> Callable[[np.ndarray], np.ndarray]:
    """The load-box key ``floor(C / width)`` of a solve, as a function of
    the children's loads.

    A width of at most 1 gives every integer load its own box, so the load
    itself is the key.  Wider boxes are keyed in int64 when the scaled
    loads (at most ``total_p * den``) fit, and otherwise in object arrays
    of exact Python integers; all three run the same sort.
    """
    num, den = width.numerator, width.denominator
    if num <= den:
        return lambda cmax: cmax
    if num > _INT64_MAX or total_p * den > _INT64_MAX:
        return lambda cmax: cmax.astype(object) * den // num
    return lambda cmax: cmax * den // num


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


def _replay_choices(inst: Instance, choices: Sequence[int]) -> tuple[int, ...]:
    """Turn a per-job choice chain into absolute machine flags.

    ``choices[i-2]`` is 0 if sorted job ``i`` went onto the currently
    most-loaded machine and 1 if onto the other one; replaying the loads
    forward resolves those relative choices into flags, with job 1 on
    flag 1.
    """
    loads = [0, inst.jobs[0].p]
    current = 1
    flags = [1]
    for job, choice in zip(inst.jobs[1:], choices):
        target = current ^ choice
        flags.append(target)
        loads[target] += job.p
        if loads[target] > loads[current]:
            current = target
    return tuple(flags)


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

    box_key = _box_key(width, inst.total_p)
    first = inst.jobs[0]
    lmax = np.array([first.p + first.q], dtype=np.int64)
    cmax = np.array([first.p], dtype=np.int64)
    origins = [np.array([-1], dtype=np.int64)]
    retained = 1
    layers = [Layer(1, lmax, cmax, origins[0])] if keep_layers else None

    for i in range(2, inst.n + 1):
        if retained + 2 * len(cmax) > budget:
            raise StateBudgetError(
                f"state budget exceeded: layer {i} needs up to "
                f"{retained + 2 * len(cmax)} live states (budget {budget})"
            )
        job = inst.jobs[i - 1]
        pool_lmax, pool_cmax = _expand(lmax, cmax, job.p, job.q, inst.prefix[i])
        origin = _min_lmax_per_key(box_key(pool_cmax), pool_lmax)
        lmax, cmax = pool_lmax[origin], pool_cmax[origin]
        origins.append(origin)
        retained += len(origin)
        if layers is not None:
            layers.append(Layer(i, lmax, cmax, origin))

    # The final layer holds one state per load box, in ascending load, so
    # a state is non-dominated iff its lmax is below that of every smaller
    # load.
    keep = np.empty(len(cmax), dtype=bool)
    keep[0] = True
    np.less(lmax[1:], np.minimum.accumulate(lmax)[:-1], out=keep[1:])
    witnesses = np.flatnonzero(keep)
    points = map(ParetoPoint, cmax[witnesses].tolist(), lmax[witnesses].tolist())
    schedules = []
    for idx in witnesses.tolist():
        choices = []
        for origin in reversed(origins[1:]):
            idx = int(origin[idx])
            choices.append(idx & 1)
            idx >>= 1
        schedules.append(_replay_choices(inst, choices[::-1]))

    return SolveResult(
        front=Front(tuple(points)),
        schedules=tuple(schedules),
        layer_sizes=tuple(len(origin) for origin in origins),
        layers=tuple(layers) if layers is not None else None,
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
