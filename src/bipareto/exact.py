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
are allocated at the first such layer.

Each layer expands into scratch arrays the solve owns, one slot per
child of the pool: the children's lateness and loads, their box keys
when those are int64 (boxes wider than 1) and the sort reducer's flags.
They are allocated at layer 2 and replaced only when a pool outgrows
them, by arrays an eighth longer than that pool, so they follow the
pools, never the box count (``P + 1`` at width 1), and layers that grow
slowly reuse them instead of allocating their own.  What is fresh per
layer is what outlives it: ``origin``, and the layer's ``lmax`` and
``cmax``, gathered from the scratch by ``origin``.  The next layer
overwrites the scratch, so no layer is a view of it.  The solves keep
only the ``origin`` arrays.  `exact_layers` and `trimmed_layers` (in
`fptas`) drain the same loop and wrap each layer's ``lmax`` and ``cmax``
in a `Layer` as they yield it, keeping none.

On dense instances `solve_exact` runs the same recurrence as a table
instead: cell ``a`` holds the smallest ``L - q_1`` with load ``a`` on
machine flag 1, for ``a`` in ``[p_1, S_i]``, and the cell dtype's
maximum where no assignment reaches it.  Every lateness lies in ``[p_1 +
q_1, P + q_1]`` (job 1 alone gives ``p_1 + q_1``, ``L`` never falls, and
no completion passes ``P`` nor any ``q`` passes ``q_1``), so every
reached cell lies in ``[p_1, P]``, whatever the delivery times: the
cells are int32 when ``P < 2**31 - 1``, below that sentinel, and int64
otherwise.  Job ``i``, with ``d = q_1 - q >= 0``, writes two contiguous
slices: its flag-0 children stay in place with ``L' = max(L, S_i - d -
a)``, and its flag-1 children move to ``a + p`` with ``L' = max(L, a +
p - d)``.  Both bounds are affine in ``a``, so each solve builds one
ramp of absolute loads in the cell dtype, ``rise``, running up to ``P``,
and ``fall``, its contiguous reverse, and each job reads its bounds as
slices of them: four passes over its cells, two maxima, the compare and
the minimum.  No reached cell is below ``p_1``, so a bound's values up
to ``p_1`` never bind: a slice whose values all lie below ``p_1`` reads
the ``m`` values up to ``p_1`` instead, for the job's ``m`` parents, and
changes no cell (`_add_jobs`).  So ``rise`` starts above ``2 p_1 - P``,
whatever the delivery times, and spans less than twice the table's
``P - p_1 + 1`` cells.  A flag-1 child replaces its cell only when
strictly smaller, so ties stay on flag 0.  One bit per cell records
which child won; walking the bits back from a final cell (``a -= p``
where set) gives absolute flags directly.  The front folds the last
table onto ``C = max(a, P - a)`` and adds ``q_1`` back to its few
points; when the two mirrored cells tie, the witness has ``a = C``.
The table, the fold and the scratch array each span at most the last
layer's ``P - p_1 + 1`` cells, and the ramps at most twice that, so the
table holds ``cells / 8`` bytes of bits plus a few arrays the width of
the last layer.  The table has no
sort, and no 8-byte parent per state, but its cells span both mirrors
of each makespan, so it pays only when loads are dense.  On this path
the table is folded after every job, onto ``C = max(a, S_i - a)``: per
makespan the smallest ``L - q_1`` over both mirrors, which is the sorted
engine's layer, state for state, less ``q_1``.  One fold stream
(`_table_folds`) yields each fold as a `_Fold`, a private `Layer` with
one cell per makespan that carries ``q_1`` as its offset: its ``lmax``
is one scratch buffer that the next fold overwrites, its ``cmax`` a
view of the table's ramp of loads, itself a view of ``rise``.  Only
`verify` reads the folds (`_exact_stream`), as they are, building no
per-state array: its drift check lowers what each cell must reach by
the offset, and its exact front adds the offset back;
`exact_layers` streams the sorted engine, as `trimmed_layers` does at
width ``delta1``.

The budget counts the sorted engine's states on both routes, and one
count decides the route (`_takes_table`).  `solve_exact` takes the
table iff its cell count ``sum_i (S_i - p_1 + 1)`` is at most four
times the sorted engine's state count, and the sorted engine would run
within the budget.  Dense loads give a ratio near 2 (the two mirrors),
on either side of it, so a factor of 2 would send some of them to the
sorted engine; the table measured faster up to a ratio of about 10.
The states per layer are counted from subset sums, one layer at a time
(`_count_layers`).  Before each job the count tests the budget by
`_layer_loop`'s own check (`_check_budget`), the states kept so far
plus twice the last layer, so it raises StateBudgetError at the first
layer the sorted engine would refuse, with the same text, and no engine
runs.  Before any of that, one O(n) bound settles sparse routes: layer
``i`` keeps at most twice the states of layer ``i - 1`` (the
list-growth bound of Nemhauser and Ullmann's Pareto-list DP), so at
most ``2**n - 1`` in all, and an instance with more than four times
that in cells skips the count and reaches any overrun in the sorted
engine.  The count stops at the first layer where the cells are at most
four times the states kept, if no later layer can pass the budget: the
states only grow, so the route is then the table.  The later layers
are bounded in O(n) by the same growth bound, each capped by the
``floor(S_j / 2) + 1`` makespans it can hold; on dense loads the count
stops 56–60 layers short of ``n = 200``.  Where that bound passes the
budget the count goes on, so every overrun still raises at its layer.
The table's ``layer_sizes`` are then counted in full, by
`_table_sizes`, when a caller first reads them.  The count's cost
follows the states it counts, not the loads: it keeps the subset sums
as a sorted array, merged with itself shifted by each load as in that
DP's list merge, until they are at least a 256th of the ``P - p_1 +
1`` possible sums; from then on a bitset of those sums, 32 bytes per
sum at most, is no larger.  An instance whose states outgrow the memory
before the budget runs out of memory in the count rather than in the
sorted engine.  Every other exact solve and every
`solve_fptas` call run the sorted engine.
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

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
    ``cmax[j]``; both solvers keep states in strictly ascending ``cmax``.
    """

    i: int
    lmax: np.ndarray
    cmax: np.ndarray

    def __len__(self) -> int:
        return len(self.cmax)


@dataclass(frozen=True, eq=False)
class _Fold(Layer):
    """A fold of the dense table, as `_exact_stream` yields it: one cell
    per makespan of the layer, reached or not.  ``lmax`` is the reused
    fold buffer in the cell dtype, holding each makespan's smallest
    lateness less ``offset`` (the first job's delivery time ``q_1``), or
    the dtype's maximum where no assignment reaches the makespan;
    ``cmax`` is the ascending run of makespans, a view of the table's
    ramp of loads.  Only verify's checks read it."""

    offset: int


@dataclass(frozen=True)
class SolveResult:
    """A Pareto front plus one realizing schedule per front point.

    ``schedules[j]`` is a tuple of machine flags, ``schedules[j][k]`` the
    flag (0 or 1) of ``inst.jobs[k]``, with the first job on flag 1; it
    evaluates exactly to ``front.points[j]``.
    ``layer_sizes[i-1]`` is the sorted engine's state count of layer
    ``i`` on either route.  The dense path of `solve_exact` counts them
    by `_table_sizes` when they are first read, since its route count
    stops early (see the module docstring); the result then compares,
    hashes and prints as if they had been given.
    The layers themselves come from `exact_layers` and
    `trimmed_layers`.
    """

    front: Front
    schedules: tuple[tuple[int, ...], ...]
    layer_sizes: tuple[int, ...]

    @classmethod
    def _counted_on_read(
        cls,
        front: Front,
        schedules: tuple[tuple[int, ...], ...],
        count: Callable[[], Sequence[int]],
    ) -> SolveResult:
        """A result whose ``layer_sizes`` is ``tuple(count())``, called at
        the first read."""
        result = cls.__new__(cls)
        result.__dict__.update(front=front, schedules=schedules, _count=count)
        return result

    def __getattr__(self, name: str):
        # reached only for attributes not set, so for layer_sizes only on
        # results of _counted_on_read, until the first read sets it
        if name != "layer_sizes" or "_count" not in self.__dict__:
            raise AttributeError(name)
        sizes = tuple(self.__dict__["_count"]())
        self.__dict__["layer_sizes"] = sizes
        del self.__dict__["_count"]
        return sizes


# ---------------------------------------------------------------------------
# Vectorized layer engine (shared with the trimming solver in fptas.py)
# ---------------------------------------------------------------------------


def _expand(
    lmax: np.ndarray,
    cmax: np.ndarray,
    p: int,
    q: int,
    prefix_total: int,
    child_lmax: np.ndarray,
    child_cmax: np.ndarray,
) -> None:
    """Writes ``(lmax, cmax)`` of all children of a layer, in generation
    order, into ``child_lmax`` and ``child_cmax``, each twice the layer's
    length, by six ufunc calls and no temporary.

    Child 2j is the same-machine child of parent j, child 2j+1 its
    other-machine child, so a child's pool index is its generation rank,
    ``index >> 1`` its parent and ``index & 1`` its choice.  The job
    lands on a machine of load ``cmax + p`` or ``S_i - cmax``, written
    first as the child's loads; one pass adds ``q`` to both for the
    completion-plus-delivery, then the maxima with the parent's ``lmax``
    and, for the other-machine child, with the lead load ``cmax`` finish
    the children.
    """
    same_lmax, other_lmax = child_lmax[0::2], child_lmax[1::2]
    other_cmax = child_cmax[1::2]
    np.add(cmax, p, out=child_cmax[0::2])
    np.subtract(prefix_total, cmax, out=other_cmax)
    np.add(child_cmax, q, out=child_lmax)
    np.maximum(same_lmax, lmax, out=same_lmax)
    np.maximum(other_lmax, lmax, out=other_lmax)
    np.maximum(other_cmax, cmax, out=other_cmax)


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
) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], bool]:
    """The load-box key ``floor(C / width)`` of a solve, as a function of
    the children's loads and an int64 scratch array at least as long, and
    whether those keys are int64 indices of boxes wider than 1, the keys
    the scatter reducer takes.

    A width of at most 1 gives every integer load its own box, so the load
    itself is the key.  Wider boxes are keyed in int64 when the scaled
    loads (at most ``total_p * den``) fit, written into the scratch, and
    otherwise in object arrays of exact Python integers; all three run the
    same sort.  Only int64 keys of wider boxes use the scratch.
    """
    num, den = width.numerator, width.denominator
    if num <= den:
        return (lambda cmax, out: cmax), False
    if num > _INT64_MAX or total_p * den > _INT64_MAX:
        return (lambda cmax, out: cmax.astype(object) * den // num), False

    # 0-d int64 operands: ufuncs take them faster than Python integers
    den64, num64 = np.array(den, dtype=np.int64), np.array(num, dtype=np.int64)

    def scaled(cmax: np.ndarray, out: np.ndarray) -> np.ndarray:
        key = np.multiply(cmax, den64, out=out[: len(cmax)])
        return np.floor_divide(key, num64, out=key)

    return scaled, True


def _min_lmax_per_key(
    key: np.ndarray, lmax: np.ndarray, flags: np.ndarray
) -> np.ndarray:
    """Pool index of the smallest-``lmax`` element per distinct ``key``,
    ties to the smallest index, in ascending key order.  ``flags`` is a
    bool scratch array at least as long as the pool.

    lexsort is stable, so equal (key, lmax) pairs keep pool order, which
    is generation order.
    """
    order = np.lexsort((lmax, key))
    sorted_key = key[order]
    is_first = flags[: len(order)]
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


def _final_front(layer: Layer) -> tuple[Front, list[int]]:
    """The Pareto front of a final layer listed in ascending load, and the
    indices of its points' states: those whose lateness is below that of
    every smaller load.  A fold of the dense table adds its offset back
    to its points' lateness; its unreached cells hold their dtype's
    maximum and never qualify."""
    lmax = layer.lmax
    prior = np.empty_like(lmax)
    prior[0] = np.iinfo(lmax.dtype).max
    np.minimum.accumulate(lmax[:-1], out=prior[1:])
    witnesses = np.flatnonzero(lmax < prior)
    offset = layer.offset if isinstance(layer, _Fold) else 0
    lateness = [value + offset for value in lmax[witnesses].tolist()]
    points = map(ParetoPoint, layer.cmax[witnesses].tolist(), lateness)
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


def _check_budget(i: int, retained: int, last: int, budget: int) -> None:
    """Raises StateBudgetError before layer ``i`` when its pool, twice
    the ``last`` layer's states, with the ``retained`` states of layers
    1..i-1, would pass ``budget``: the sorted engine's test, which the
    route count applies to the states it counts."""
    if retained + 2 * last > budget:
        raise StateBudgetError(
            f"state budget exceeded: layer {i} needs up to "
            f"{retained + 2 * last} live states (budget {budget})"
        )


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
    size = 0  # children the scratch holds

    for i in range(2, inst.n + 1):
        _check_budget(i, retained, len(cmax), budget)
        job = inst.jobs[i - 1]
        pool = 2 * len(cmax)
        if pool > size:
            # trimmed layers grow at almost every job: scratch sized to
            # the pool alone is replaced almost every layer, which cost
            # about 6% of the fptas-grid solves
            size = pool + pool // 8
            child_lmax = np.empty(size, dtype=np.int64)
            child_cmax = np.empty(size, dtype=np.int64)
            keys = np.empty(size, dtype=np.int64) if int64_boxes else None
            flags = np.empty(size, dtype=bool)
        pool_lmax, pool_cmax = child_lmax[:pool], child_cmax[:pool]
        _expand(lmax, cmax, job.p, job.q, inst.prefix[i], pool_lmax, pool_cmax)
        key = box_key(pool_cmax, keys)
        if scatter and pool >= _SCATTER_MIN_POOL and boxes <= _SCATTER_BOXES_PER_CHILD * pool:
            if best is None:
                best = np.full(boxes, _INT64_MAX, dtype=np.int64)
                ranks = np.arange(2 * boxes, dtype=np.int64)
            origin = _scatter_min_per_key(key, pool_lmax, best, ranks)
        else:
            origin = _min_lmax_per_key(key, pool_lmax, flags)
        # fresh gathers: the next layer overwrites the scratch
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
    front, witnesses = _final_front(Layer(inst.n, lmax, cmax))
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


def _first_table(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense table of layer 1, the ramp of its loads and the ramp
    they are a view of, in the cell dtype: ``table[k]`` is the smallest
    lateness less ``q_1`` with flag-1 load ``loads[k] = p_1 + k``, for
    every load up to ``P``, and ``rise`` runs up to ``P`` from below
    every value `_add_jobs` reads: the smallest ``p - d`` of jobs 2..n,
    but no lower than ``2 p_1 + 1 - P``, where a clamped slice may
    start."""
    first = inst.jobs[0]
    # every cell is at most P, below the sentinel
    dtype = np.int32 if inst.total_p < np.iinfo(np.int32).max else np.int64
    table = np.full(inst.total_p - first.p + 1, np.iinfo(dtype).max, dtype=dtype)
    table[0] = first.p
    low = min([first.p] + [job.p + job.q - first.q for job in inst.jobs[1:]])
    lo = min(first.p, max(low, 2 * first.p + 1 - inst.total_p))
    rise = np.arange(lo, inst.total_p + 1, dtype=dtype)
    return table, rise[first.p - lo :], rise


def _add_jobs(inst: Instance, table: np.ndarray, rise: np.ndarray) -> Iterator[np.ndarray]:
    """Adds jobs 2..n to layer 1's ``table`` in place (see the module
    docstring), yielding after each job its take mask: ``take[k]`` is
    set iff load ``p_1 + k + p`` moved onto flag 1.

    Each job reads its children's lateness bounds as slices of
    `_first_table`'s ``rise`` and its reverse, ``m = S_i - p - p_1 + 1``
    values each, one per parent, up to ``S_i - d`` (flag 1) and ``S_i -
    d - p_1`` (flag 0).  No reached cell is below ``p_1``, so values up
    to ``p_1`` never bind: a slice whose largest value is below ``p_1``
    reads up to ``p_1`` instead, which changes no cell and keeps it in
    ``rise``.
    """
    base, top = inst.jobs[0].p, inst.jobs[0].q
    shift, hi = base - int(rise[0]) + 1, int(rise[-1])
    # scratch for one job's parents, as wide as the table
    moved = np.empty_like(table)
    # contiguous: a reversed view is about 3x slower to read
    fall = rise[::-1].copy()
    for job, prefix in zip(inst.jobs[1:], inst.prefix[2:]):
        # t = S_i - d - p_1, the flag-0 bound of the first parent; the
        # flag-1 bound of the last parent is p_1 + t
        m, t = prefix - job.p - base + 1, prefix + job.q - top - base
        # max() written out: a call per job read 3% slower on small tables
        end = shift + (t if t > 0 else 0)
        start = hi - (t if t > base else base)
        parents, up = table[:m], moved[:m]
        # flag-1 children: load a + p, lateness max(L, a + p - d)
        np.maximum(rise[end - m : end], parents, out=up)
        # flag-0 children in place: max(L, S_i - d - a); the sentinel stays
        np.maximum(parents, fall[start : start + m], out=parents)
        # a flag-1 child replaces its cell only when strictly smaller
        cells = table[job.p : job.p + m]
        take = up < cells
        np.minimum(cells, up, out=cells)
        yield take


def _table_folds(inst: Instance) -> Iterator[_Fold]:
    """The dense table folded after every job, as `_Fold`s of layers
    1..n (see `_Fold`).  Every fold's ``lmax`` is a view of one scratch
    buffer, which the next fold overwrites."""
    table, loads, rise = _first_table(inst)
    out = np.empty_like(table)
    base, offset = inst.jobs[0].p, inst.jobs[0].q
    # layer 1, then one layer per job added
    for i, _ in enumerate(chain((None,), _add_jobs(inst, table, rise)), 1):
        yield _Fold(i, *_fold(table, loads, base, inst.prefix[i], out), offset)


def _solve_dense(inst: Instance, budget: int) -> SolveResult:
    """The exact front from a table of the smallest lateness per flag-1
    load (see the module docstring).  Its ``layer_sizes`` are
    `_table_sizes` under ``budget``, counted when first read."""
    base, offset, total = inst.jobs[0].p, inst.jobs[0].q, inst.total_p
    table, loads, rise = _first_table(inst)
    # per job i >= 2: packed bits, bit k set iff load base + k + p moved onto flag 1
    takes = [np.packbits(take).tobytes() for take in _add_jobs(inst, table, rise)]
    folded = _fold(table, loads, base, total, np.empty_like(table))
    front, _ = _final_front(_Fold(inst.n, *folded, offset))
    schedules = []
    for cmax, lmax in front:
        # ties between the two mirrors go to flag 1 carrying the makespan
        a = cmax if table[cmax - base] == lmax - offset else total - cmax
        flags = []
        for job, packed in zip(reversed(inst.jobs[1:]), reversed(takes)):
            k = a - base - job.p
            bit = (packed[k >> 3] >> (7 - (k & 7))) & 1 if k >= 0 else 0
            flags.append(bit)
            a -= job.p * bit
        flags.append(1)
        schedules.append(tuple(flags[::-1]))

    return SolveResult._counted_on_read(front, tuple(schedules), partial(_table_sizes, inst, budget))


def _merged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The values of two ascending int64 arrays, ascending, repeats kept: a
    stable sort merges the two runs in linear time."""
    both = np.concatenate((a, b))
    both.sort(kind="stable")
    return both


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct values of two ascending int64 arrays, ascending: one
    neighbour compare drops the repeats of their merge."""
    both = _merged(a, b)
    return both[np.concatenate(([True], both[1:] != both[:-1]))]


def _table_cells(inst: Instance, budget: int) -> Optional[int]:
    """The dense table's cell count ``sum_i (S_i - p_1 + 1)``, or None when
    the O(n) list-growth bound already sends the solve to the sorted
    engine: layer ``i`` keeps at most twice the states of layer ``i - 1``,
    ``2**n - 1`` in all, and the cells pass four times that."""
    if budget < 1:
        raise ValueError("state budget must be positive")
    cells = sum(inst.prefix[1:]) - inst.n * (inst.jobs[0].p - 1)
    return None if cells > 4 * (2**inst.n - 1) else cells


def _count_layers(inst: Instance, budget: int) -> Iterator[int]:
    """The sorted engine's state count of layers 1..n, one at a time,
    counted from subset sums.  Before each layer ``i >= 2`` it raises
    StateBudgetError where the sorted engine would (`_check_budget`).

    ``reach`` holds the subset sums ``t`` of the jobs 2..i: flag 1 can
    carry ``p_1 + t`` and flag 0 can carry ``t``.  The loads either
    machine can carry form a set symmetric about ``S_i / 2``, of ``2
    |reach| - c`` loads for the ``c`` sums in both ``reach`` and ``reach +
    p_1``, and the makespans are its upper half: ``|reach| - floor(c /
    2)``.  ``reach`` starts as a sorted int64 array, grown by the union
    with ``reach + p``; ``c`` is then the count of equal neighbours in
    the merge of ``reach`` and ``reach + p_1``, which it does not
    compact.  Once ``reach`` holds a 256th of the ``P - p_1 + 1``
    possible sums, it becomes a Python integer with bit ``t`` set for each
    sum, for good, and ``c`` is the popcount of ``reach & reach >> p_1``.
    """
    base, span = inst.jobs[0].p, inst.total_p - inst.jobs[0].p
    reach = np.zeros(1, dtype=np.int64)
    kept = size = 1
    yield size
    for i, job in enumerate(inst.jobs[1:], 2):
        _check_budget(i, kept, size, budget)
        if isinstance(reach, int):
            reach |= reach << job.p
            size = reach.bit_count() - (reach & reach >> base).bit_count() // 2
        else:
            reach = _union(reach, reach + job.p)
            both = _merged(reach, reach + base)
            size = len(reach) - int(np.count_nonzero(both[1:] == both[:-1])) // 2
            if span <= 256 * len(reach):
                # one bit per possible sum, 32 bytes per sum held at most;
                # a bool array would take eight times that
                bits = np.zeros(span // 8 + 1, dtype=np.uint8)
                np.bitwise_or.at(bits, reach >> 3, (1 << (reach & 7)).astype(np.uint8))
                reach = int.from_bytes(bits, "little")
        kept += size
        yield size


def _table_sizes(inst: Instance, budget: int) -> Optional[list[int]]:
    """The sorted engine's state count per layer when the exact solve
    takes the dense table, else None: the table does not pay (see the
    module docstring).  Raises StateBudgetError where the sorted engine
    would, when the count reaches that layer.  It drains `_count_layers`
    to the last layer; the dense route's results call it when their
    ``layer_sizes`` is first read."""
    cells = _table_cells(inst, budget)
    if cells is None:
        return None
    sizes = list(_count_layers(inst, budget))
    return sizes if cells <= 4 * sum(sizes) else None


def _takes_table(inst: Instance, budget: int) -> bool:
    """Whether `solve_exact` takes the dense table, that is whether
    `_table_sizes` returns sizes, decided from `_count_layers` without
    counting the layers that cannot change the outcome.  It raises the
    same StateBudgetError where the count raises.

    The states kept only grow, so once the cells are at most four times
    them the route is the table unless a later layer passes the budget.
    Layer ``j`` keeps at most ``u_j = min(2 u_{j-1}, floor(S_j / 2) +
    1)`` states (twice the layer before, and one per makespan), from
    ``u_i`` the last layer counted.  ``u`` never falls, so the budget
    test before layer ``n``, the kept states plus ``u_{i+1..n-1}`` plus
    ``2 u_{n-1}``, is the largest of the later ones: when it fits, the
    count stops there.
    """
    cells = _table_cells(inst, budget)
    if cells is None:
        return False
    kept = 0
    for i, size in enumerate(_count_layers(inst, budget), 1):
        kept += size
        if 4 * kept < cells:
            continue
        bound, u = kept, size
        for total in inst.prefix[i + 1 : inst.n]:
            u = min(2 * u, total // 2 + 1)
            bound += u
        if i == inst.n or bound + 2 * u <= budget:
            return True
    return False


def solve_exact(inst: Instance, *, budget: int = DEFAULT_STATE_BUDGET) -> SolveResult:
    """Exact Pareto front of (makespan, maximum lateness).

    Runs the paper's recurrence exactly and returns every non-dominated
    objective pair together with a schedule realizing it.  Dense
    instances go through the table over the flag-1 load and sparse ones
    through the sorted engine (see the module docstring for the rule).
    Raises StateBudgetError instead of exhausting memory when the
    retained state count would exceed ``budget``: from the route count
    when it reaches that layer, else from the sorted engine.
    """
    if not _takes_table(inst, budget):
        return _solve_layered(inst, Fraction(1), budget)
    return _solve_dense(inst, budget)


def exact_layers(inst: Instance, *, budget: int = DEFAULT_STATE_BUDGET) -> Iterator[Layer]:
    """Layers 1..n of `solve_exact` on ``inst``, one at a time: the sorted
    engine's layers, which the dense table's folds equal state for state.

    The stream keeps no layer it has yielded, nor any parent chain, and
    raises StateBudgetError at the layer where `solve_exact` does, with
    the same text.
    """
    return _sorted_layers(inst, Fraction(1), budget)


def _exact_stream(inst: Instance, budget: int) -> Iterator[Layer]:
    """The exact layers on `solve_exact`'s route, for verify's drift
    check: the sorted engine's layers, or on the dense route the `_Fold`s
    `_table_folds` yields, which the check reads directly, one at a
    time.  A budget overrun the route count finds raises here, before
    any layer."""
    if not _takes_table(inst, budget):
        return _sorted_layers(inst, Fraction(1), budget)
    return _table_folds(inst)
