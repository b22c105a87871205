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

The sorted engine is one loop over plain int64 arrays: its layer is ``lmax``,
``cmax`` and ``origin``.  ``origin[j]`` is the index in the layer's
successor pool that state ``j`` won from, so its parent is state
``origin[j] >> 1`` of the previous layer and its choice ``origin[j] & 1``
(0: same machine, 1: other machine).  The list of ``origin`` arrays is
the only parent chain, 8 bytes per retained state.  The box key (the
load itself for width 1, otherwise ``floor(C / width)`` in int64, or in
exact Python integers when the scaled loads could pass int64) depends
only on the width and ``P``, so it is chosen once per solve.  Two
reducers apply the rule.  A stable ``lexsort`` by box, then ``L``,
keeps the first state per box; it serves every key kind.  A scatter-min
of ``L * pool + index`` into one slot per box keeps the smallest packed
value, which is the same state, and reads the winners out in box order.
Whether a solve may scatter is decided once: its boxes must be wider
than 1, with int64 keys, and ``(P + q_max + 1) * 2 * boxes`` must fit in
int64, for ``boxes = box_index(P, width) + 1``.  A layer keeps at most
one state per box, so no pool passes ``2 * boxes`` and every packed
value fits.  Such a solve then scatters each layer whose pool has at
least 512 children and at least half as many as the boxes; its slots
are allocated at the first such layer.  The solves keep
only the ``origin`` arrays.  `exact_layers` and `trimmed_layers` (in
`fptas`) drain the same loop and wrap each layer's ``lmax`` and ``cmax``
in a `Layer` as they yield it, keeping none.

On dense instances `solve_exact` runs the same recurrence as a table
instead: cell ``a`` holds the smallest ``L`` with load ``a`` on machine
flag 1, for ``a`` in ``[p_1, S_i]``, and the cell dtype's maximum where
no assignment reaches it.  The cells are int32 when ``P + q_max <
2**31 - 1``, so that every lateness and load stays below that sentinel,
and int64 otherwise.  Job ``i`` writes two contiguous slices: its flag-0
children stay in place with ``L' = max(L, S_i - a + q)``, and its flag-1
children move to ``a + p`` with ``L' = max(L, a + p + q)``.  A flag-1
child replaces its cell only when strictly smaller, so ties stay on
flag 0.  One bit per cell records which child won; walking the bits
back from a final cell (``a -= p`` where set) gives absolute flags
directly.  The front folds the last table onto ``C = max(a, P - a)``;
when the two mirrored cells tie, the witness has ``a = C``.  The
table, the fold and the scratch arrays each span at most the last
layer's ``P - p_1 + 1`` cells, so the table holds ``cells / 8`` bytes
of bits plus a few arrays the width of the last layer.  The table has
no sort, and no 8-byte parent per state, but its cells span both
mirrors of each makespan, so it pays only when loads are dense.  On
this path the table is folded after every job, onto ``C = max(a, S_i -
a)``: per makespan the smallest ``L`` over both mirrors, which is the
sorted engine's layer, state for state.  One fold stream
(`_table_folds`) yields each fold as a `_Fold`, a private `Layer` with
one cell per makespan: its ``lmax`` is one scratch buffer that the next
fold overwrites, its ``cmax`` a view of the table's ramp of loads.
`exact_layers` compacts each fold's reached cells into a plain `Layer`
of int64 arrays, whatever the cell dtype (`_reached`); `verify`'s drift
check reads the folds as they are (`_exact_stream`), building no
per-state array.
The budget counts the sorted engine's states on both routes, and one
count decides the route (`_table_sizes`).  `solve_exact` takes the
table iff its cell count ``sum_i (S_i - p_1 + 1)`` is at most four
times the sorted engine's state count, and the sorted engine would run
within the budget.  Dense loads give a ratio near 2 (the two mirrors),
on either side of it, so a factor of 2 would send some of them to the
sorted engine; the table measured faster up to a ratio of about 10.
The states per layer are counted from subset sums, and the table
reports them as its layer sizes.  Before each job the count tests the
budget as `_layer_loop` does, the states kept so far plus twice the
last layer, and stops at the first layer the sorted engine would
refuse: that instance goes to the sorted engine, which raises where it
always does.  Before any of that, an O(n) bound settles sparse routes:
layer ``i`` keeps at most twice the states of layer ``i - 1`` (the
list-growth bound of Nemhauser and Ullmann's Pareto-list DP) and at
most ``S_i // (2 g) + 1`` makespans, for ``g`` the greatest common
divisor of the loads, and the count runs only while the cells are at
most four times both that bound and the budget.  Every load and
makespan is a multiple of ``g``, and the count's bitset has one bit per
multiple, so it is bounded by the states the sorted engine could keep,
not by the loads.  Loads that are near-multiples of a large number are
its limit: they share no factor, so under a budget far above their
states the doubling term lets the bound, and then the bitset, grow as
wide as the loads.  `exact_layers` takes the same route.  Every other
exact solve and every `solve_fptas` call run the sorted engine.
Both paths give the same front, layer sizes and layers' states, and
raise the same StateBudgetError under the same budget; their
witnesses may differ where ties allow.

The test suite checks the sorted engine's layers, parents and
tie-breaks against a plain-integer reference, for small ``n`` each layer
against brute force over the assignments of the job prefix, and the
dense table against the sorted engine: fronts, layer sizes, streamed
layers and witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .model import Front, Instance, ParetoPoint

# Live retained states across all layers (parent chains keep them alive),
# counted as the sorted engine keeps them on both exact routes.
DEFAULT_STATE_BUDGET = 50_000_000

_INT64_MAX = 2**63 - 1

# The trimmed solver reduces a layer by scatter-min when its pool holds at
# least _SCATTER_MIN_POOL children and at most _SCATTER_BOXES_PER_CHILD
# load boxes per child, and sorts otherwise.  Children come nearly sorted
# by box, and on such pools the sort was faster below about 500.
_SCATTER_MIN_POOL = 512
_SCATTER_BOXES_PER_CHILD = 2


class StateBudgetError(RuntimeError):
    """Raised when a solve would retain more states than allowed."""


@dataclass(frozen=True, eq=False)
class Layer:
    """States kept after processing the first ``i`` jobs, as int64 arrays,
    as `exact_layers` and `trimmed_layers` yield them.

    State ``j`` has lateness ``lmax[j]`` and most-loaded machine load
    ``cmax[j]``; both solvers keep states in strictly ascending ``cmax``,
    and both exact routes yield the same states.
    """

    i: int
    lmax: np.ndarray
    cmax: np.ndarray

    def __len__(self) -> int:
        return len(self.cmax)


class _Fold(Layer):
    """A fold of the dense table, as `_exact_stream` yields it: one cell
    per makespan of the layer, reached or not.  ``lmax`` is the reused
    fold buffer in the cell dtype, holding the dtype's maximum where no
    assignment reaches the makespan; ``cmax`` is the ascending run of
    makespans, a view of the table's ramp of loads.  `exact_layers`
    turns each into a plain `Layer` of its reached cells (`_reached`);
    verify's drift check reads it as it is."""


@dataclass(frozen=True)
class SolveResult:
    """A Pareto front plus one realizing schedule per front point.

    ``schedules[j]`` is a tuple of machine flags, ``schedules[j][k]`` the
    flag (0 or 1) of ``inst.jobs[k]``, with the first job on flag 1; it
    evaluates exactly to ``front.points[j]``.
    ``layer_sizes[i-1]`` is the sorted engine's state count of layer
    ``i`` on either route: the dense path of `solve_exact` takes it
    from the count that routed the solve there (see the module
    docstring).
    The layers themselves come from `exact_layers` and
    `trimmed_layers`.
    """

    front: Front
    schedules: tuple[tuple[int, ...], ...]
    layer_sizes: tuple[int, ...]


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


def box_index(value: int, delta: Fraction) -> int:
    """Index of the load box containing ``value``, for box width ``delta``:
    the layer rule of both solvers keeps one state per box.

    Computed as floor(value / delta) in exact integer arithmetic; a value
    sitting exactly on a boundary belongs to the higher-index box.  Loads
    lie in ``[0, P]``, so a solve has ``box_index(P, width) + 1`` boxes.
    """
    if value < 0:
        raise ValueError(f"box_index requires value >= 0, got {value}")
    return value * delta.denominator // delta.numerator


def _box_key(
    width: Fraction, total_p: int
) -> tuple[Callable[[np.ndarray], np.ndarray], bool]:
    """The load-box key ``floor(C / width)`` of a solve, as a function of
    the children's loads, and whether those keys are int64 indices of
    boxes wider than 1, the keys the scatter reducer takes.

    A width of at most 1 gives every integer load its own box, so the load
    itself is the key.  Wider boxes are keyed in int64 when the scaled
    loads (at most ``total_p * den``) fit, and otherwise in object arrays
    of exact Python integers; all three run the same sort.
    """
    num, den = width.numerator, width.denominator
    if num <= den:
        return (lambda cmax: cmax), False
    if num > _INT64_MAX or total_p * den > _INT64_MAX:
        return (lambda cmax: cmax.astype(object) * den // num), False
    return (lambda cmax: cmax * den // num), True


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


def _scatter_min_per_key(
    key: np.ndarray, lmax: np.ndarray, best: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """`_min_lmax_per_key` for int64 keys in ``[0, len(best))``, by one
    scatter-min of ``lmax * pool + index`` per key: the smallest packed
    value has the smallest ``lmax``, then the smallest index.

    ``best`` is scratch holding _INT64_MAX and is left so; ``ranks[k]``
    is ``k``.  Every packed value must be below _INT64_MAX, that is
    ``max(lmax) + 1`` times the pool must fit in int64.
    """
    pool = len(key)
    packed = lmax * pool
    packed += ranks[:pool]
    np.minimum.at(best, key, packed)
    won = best[best != _INT64_MAX]
    best.fill(_INT64_MAX)
    return won % pool


def _final_front(lmax: np.ndarray, cmax: np.ndarray) -> tuple[Front, list[int]]:
    """The Pareto front of a final layer listed in ascending load, and the
    indices of its points' states: those whose lateness is below that of
    every smaller load.  Unreached cells of a folded table hold their
    dtype's maximum and never qualify."""
    prior = np.empty_like(lmax)
    prior[0] = np.iinfo(lmax.dtype).max
    np.minimum.accumulate(lmax[:-1], out=prior[1:])
    witnesses = np.flatnonzero(lmax < prior)
    points = map(ParetoPoint, cmax[witnesses].tolist(), lmax[witnesses].tolist())
    return Front(tuple(points)), witnesses.tolist()


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


def _layer_loop(
    inst: Instance, width: Fraction, budget: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The sorted engine: ``(lmax, cmax, origin)`` of layers 1..n, each
    built from the one before: expand, keep one state per load box of
    ``width``.  Whether the scatter reducer may serve the solve is decided
    before the first layer; each layer then picks its reducer by its pool
    size alone.

    Raises StateBudgetError before a layer whose pool, with every state
    of the layers so far, would pass ``budget``: the solve keeps every
    ``origin`` as its parent chain, and a stream is held to the same
    count so that it stops where the solve stops.
    """
    if budget < 1:
        raise ValueError("state budget must be positive")

    box_key, int64_boxes = _box_key(width, inst.total_p)
    # A layer keeps at most one state per box, so no pool passes 2 * boxes
    # and the scatter reducer's packed values stay below
    # (P + q_max + 1) * 2 * boxes.  Its scratch is allocated at the first
    # layer that takes it.
    boxes = box_index(inst.total_p, width) + 1
    scatter = int64_boxes and (inst.total_p + inst.q_max + 1) * 2 * boxes <= _INT64_MAX
    best = ranks = None
    first = inst.jobs[0]
    lmax = np.array([first.p + first.q], dtype=np.int64)
    cmax = np.array([first.p], dtype=np.int64)
    yield lmax, cmax, np.array([-1], dtype=np.int64)
    retained = 1

    for i in range(2, inst.n + 1):
        if retained + 2 * len(cmax) > budget:
            raise StateBudgetError(
                f"state budget exceeded: layer {i} needs up to "
                f"{retained + 2 * len(cmax)} live states (budget {budget})"
            )
        job = inst.jobs[i - 1]
        pool_lmax, pool_cmax = _expand(lmax, cmax, job.p, job.q, inst.prefix[i])
        key = box_key(pool_cmax)
        pool = len(key)
        if scatter and pool >= _SCATTER_MIN_POOL and boxes <= _SCATTER_BOXES_PER_CHILD * pool:
            if best is None:
                best = np.full(boxes, _INT64_MAX, dtype=np.int64)
                ranks = np.arange(2 * boxes, dtype=np.int64)
            origin = _scatter_min_per_key(key, pool_lmax, best, ranks)
        else:
            origin = _min_lmax_per_key(key, pool_lmax)
        lmax, cmax = pool_lmax[origin], pool_cmax[origin]
        retained += len(origin)
        yield lmax, cmax, origin


def _sorted_layers(inst: Instance, width: Fraction, budget: int) -> Iterator[Layer]:
    """`_layer_loop`'s layers as `Layer`s, one at a time, without their
    ``origin``."""
    loop = _layer_loop(inst, width, budget)
    return (Layer(i, lmax, cmax) for i, (lmax, cmax, _) in enumerate(loop, 1))


def _solve_layered(inst: Instance, width: Fraction, budget: int) -> SolveResult:
    """The front of `_layer_loop`'s last layer, with witnesses
    reconstructed along the kept ``origin`` arrays."""
    origins = []
    for lmax, cmax, origin in _layer_loop(inst, width, budget):
        origins.append(origin)
    front, witnesses = _final_front(lmax, cmax)
    schedules = []
    for idx in witnesses:
        choices = []
        for origin in reversed(origins[1:]):
            idx = int(origin[idx])
            choices.append(idx & 1)
            idx >>= 1
        schedules.append(_replay_choices(inst, choices[::-1]))

    return SolveResult(front, tuple(schedules), tuple(len(origin) for origin in origins))


# ---------------------------------------------------------------------------
# Dense exact path: a table over the flag-1 load
# ---------------------------------------------------------------------------


def _fold(
    table: np.ndarray, loads: np.ndarray, base: int, total: int, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest lateness per makespan ``C = max(a, total - a)`` over the
    flag-1 loads ``a`` in ``[base, total]`` of ``table`` (cell ``a - base``),
    written to the front of ``out``: ``(folded, makespans)``, ``folded[k]``
    for ``C = makespans[k]``, a view of the ramp ``loads`` (``loads[k] =
    base + k``).

    C runs from ``start = max(ceil(total / 2), base)`` to ``total``, so
    the fold is never longer than the table: first a = C, then, where
    ``base <= total / 2`` (and so C starts at ``ceil(total / 2)``), the
    mirror a = total - C for C <= total - base, read backwards from
    a = total // 2.
    """
    start = max((total + 1) // 2, base)
    folded = out[: total - start + 1]
    np.copyto(folded, table[start - base : total - base + 1])
    span = total // 2 - base + 1
    if span > 0:
        np.minimum(folded[:span], table[span - 1 :: -1], out=folded[:span])
    return folded, loads[start - base : total - base + 1]


def _first_table(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The dense table of layer 1 and the ramp of its loads, in the cell
    dtype: ``table[k]`` is the smallest lateness with flag-1 load
    ``loads[k] = p_1 + k``, for every load up to ``P``."""
    first = inst.jobs[0]
    # every lateness and load is at most P + q_max, below the sentinel
    dtype = np.int32 if inst.total_p + inst.q_max < np.iinfo(np.int32).max else np.int64
    table = np.full(inst.total_p - first.p + 1, np.iinfo(dtype).max, dtype=dtype)
    table[0] = first.p + first.q
    return table, np.arange(first.p, inst.total_p + 1, dtype=dtype)


def _add_jobs(inst: Instance, table: np.ndarray, loads: np.ndarray) -> Iterator[np.ndarray]:
    """Adds jobs 2..n to layer 1's ``table`` in place (see the module
    docstring), yielding after each job its take mask: ``take[k]`` is
    set iff load ``p_1 + k + p`` moved onto flag 1.  ``loads`` is the
    table's ramp."""
    base = inst.jobs[0].p
    # scratch for one job's parents, as wide as the ramp
    moved = np.empty_like(loads)
    stayed = np.empty_like(loads)
    for job, prefix in zip(inst.jobs[1:], inst.prefix[2:]):
        m = prefix - job.p - base + 1  # loads reached before this job
        parents = table[:m]
        # flag-1 children: load a + p, lateness max(L, a + p + q)
        up = np.add(loads[:m], job.p + job.q, out=moved[:m])
        np.maximum(up, parents, out=up)
        # flag-0 children in place: max(L, S_i - a + q); the sentinel stays
        np.subtract(prefix + job.q, loads[:m], out=stayed[:m])
        np.maximum(parents, stayed[:m], out=parents)
        # a flag-1 child replaces its cell only when strictly smaller
        cells = table[job.p : job.p + m]
        take = up < cells
        np.minimum(cells, up, out=cells)
        yield take


def _table_folds(inst: Instance) -> Iterator[_Fold]:
    """The dense table folded after every job, as `_Fold`s of layers
    1..n (see `_Fold`).  Every fold's ``lmax`` is a view of one scratch
    buffer, which the next fold overwrites."""
    table, loads = _first_table(inst)
    out = np.empty_like(table)
    base = inst.jobs[0].p
    # layer 1, then one layer per job added
    for i, _ in enumerate(chain((None,), _add_jobs(inst, table, loads)), 1):
        yield _Fold(i, *_fold(table, loads, base, inst.prefix[i], out))


def _reached(layer: Layer) -> Layer:
    """A `_Fold` as a plain `Layer` of int64 copies of its reached cells:
    the reached makespans, each with its smallest lateness.  Any other
    layer passes through as it is."""
    if not isinstance(layer, _Fold):
        return layer
    reached = layer.lmax != np.iinfo(layer.lmax.dtype).max
    lmax, cmax = layer.lmax[reached], layer.cmax[reached]
    return Layer(layer.i, lmax.astype(np.int64, copy=False), cmax.astype(np.int64, copy=False))


def _solve_dense(inst: Instance, sizes: Sequence[int]) -> SolveResult:
    """The exact front from a table of the smallest lateness per flag-1
    load (see the module docstring); ``sizes`` is `_table_sizes`."""
    base, total = inst.jobs[0].p, inst.total_p
    table, loads = _first_table(inst)
    # per job i >= 2: packed bits, bit k set iff load base + k + p moved onto flag 1
    takes = [np.packbits(take).tobytes() for take in _add_jobs(inst, table, loads)]
    front, _ = _final_front(*_fold(table, loads, base, total, np.empty_like(table)))
    schedules = []
    for cmax, lmax in front:
        # ties between the two mirrors go to flag 1 carrying the makespan
        a = cmax if table[cmax - base] == lmax else total - cmax
        flags = []
        for job, packed in zip(reversed(inst.jobs[1:]), reversed(takes)):
            k = a - base - job.p
            bit = (packed[k >> 3] >> (7 - (k & 7))) & 1 if k >= 0 else 0
            flags.append(bit)
            a -= job.p * bit
        flags.append(1)
        schedules.append(tuple(flags[::-1]))

    return SolveResult(front, tuple(schedules), tuple(sizes))


def _table_sizes(inst: Instance, budget: int) -> Optional[list[int]]:
    """The sorted engine's state count per layer when the exact solve
    takes the dense table, else None (see the module docstring).

    Every load is a multiple of ``g``, the loads' greatest common
    divisor, so the count works in units of ``g``.  Bit ``t`` of ``reach``
    is set when some subset of the jobs 2..i sums to ``t g``, so flag 1
    can carry ``p_1 + t g`` and flag 0 can carry ``t g``.  The loads
    either machine can carry form a set symmetric about ``S_i / 2`` of
    size ``2 |reach| - |reach & (reach + p_1 / g)|``; the makespans are
    its upper half, ``|reach| - floor(|reach & (reach + p_1 / g)| / 2)``
    of them.
    """
    cells = sum(inst.prefix[1:]) - inst.n * (inst.jobs[0].p - 1)
    g = math.gcd(*(job.p for job in inst.jobs))
    # layer i keeps at most twice layer i-1 and at most S_i // (2 g) + 1
    # states, one per multiple of g from S_i / 2 to S_i
    most = bound = 1
    for prefix in inst.prefix[2:]:
        most = min(2 * most, prefix // (2 * g) + 1)
        bound += most
    if cells > 4 * min(budget, bound):
        return None
    base = inst.jobs[0].p // g
    reach = kept = 1
    sizes = [1]
    for job in inst.jobs[1:]:
        if kept + 2 * sizes[-1] > budget:
            return None
        reach |= reach << job.p // g
        sizes.append(reach.bit_count() - (reach & reach >> base).bit_count() // 2)
        kept += sizes[-1]
    return sizes if cells <= 4 * kept else None


def solve_exact(inst: Instance, *, budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """Exact Pareto front of (makespan, maximum lateness).

    Runs the paper's recurrence exactly and returns every non-dominated
    objective pair together with a schedule realizing it.  Dense
    instances go through the table over the flag-1 load and sparse ones
    through the sorted engine (see the module docstring for the rule).
    Raises StateBudgetError instead of exhausting memory when the
    retained state count would exceed ``budget``.
    """
    sizes = _table_sizes(inst, budget)
    if sizes is None:
        return _solve_layered(inst, Fraction(1), budget)
    return _solve_dense(inst, sizes)


def exact_layers(inst: Instance, *, budget: int = DEFAULT_STATE_BUDGET) -> Iterator[Layer]:
    """Layers 1..n of `solve_exact` on ``inst``, one at a time, built on
    the same route: the sorted engine's layers, or the dense table folded
    after each job, which holds the same states.

    The stream keeps no layer it has yielded, nor any parent chain.  The
    table runs only where the sorted engine would fit the budget (see
    the module docstring for the rule), so an instance over it streams
    the sorted engine's layers and raises StateBudgetError at the layer
    where `solve_exact` does, with the same text.
    """
    return map(_reached, _exact_stream(inst, budget))


def _exact_stream(inst: Instance, budget: int) -> Iterator[Layer]:
    """`exact_layers` on the same route, with the dense table's layers
    left as the `_Fold`s `_table_folds` yields: the drift check reads
    those directly, one at a time."""
    if _table_sizes(inst, budget) is None:
        return _sorted_layers(inst, Fraction(1), budget)
    return _table_folds(inst)
