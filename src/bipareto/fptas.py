"""Approximate Pareto front via state trimming, with a (1+eps) guarantee.

The trimming solver runs the same layered recurrence as the exact one,
with the same layer rule on wider boxes: it keeps one state per occupied
load box floor(C / delta1), the one with the smallest lateness, ties to
the earliest generated (smallest parent load, then the same-machine
child), in ascending load order.  The exact solver is the case of boxes
of width 1; with delta1 <= 1 every load is its own box and the trimming
solver builds exactly the exact solver's layers.  The paper's grid also
cuts the lateness axis into boxes of width delta2 = eps * (P + q_max) /
(3 n); this one does not, and so has up to 3n/eps + 1 times fewer boxes
per layer.  A kept state is less than delta1 from each state it replaces
in load and not above it in lateness, and expansion widens neither error
(children are maxima of sums of C, S_i - C and L), so after i jobs both
drifts stay within (i-1)*delta1.  With

    delta1 = eps * P / (2 n)          CMAX = P

and P <= 2 C <= 2 L at every front point (C, L), the drift after n jobs
is below eps * C and eps * L: every exact front point is covered by an
approximate point within (1+eps) * C and (1+eps) * L.  The per-layer
drift is checkable directly: `find_closeness_violation` looks, for every
exact state of every layer i, for a trimmed state within (i-1)*delta1
of it in load and at most (i-1)*delta1 above it in lateness, and
returns the first exact state that has none.  It reads the two runs'
layers as streams, `exact_layers` and `trimmed_layers`, one pair at a
time, so no layer of either run needs to be kept.  Per layer the
trimmed states give one step function of the load, the smallest
lateness an exact state there must have to be covered
(`_cover_steps`), and each exact state finds its step by binary
search.  On the dense route `verify` passes the table's folds instead,
`exact`'s private `_Fold` layers with one cell per makespan, each
holding its lateness less the fold's offset ``q_1``: each fold is cut
into one run of cells per step, and one reduceat compares each run's
minimum with its step less the offset, with no per-state array.

This module only chooses the box width; the box rule itself,
`box_index`, and the engine that applies it are in `exact`.

All grid arithmetic is exact: deltas are `fractions.Fraction`, box
indices are integer floor divisions, and the coverage predicate
cross-multiplies integers.  Box keys are the loads themselves when
delta1 <= 1, int64 arrays when the scaled loads fit in int64, and object
arrays of Python integers when they do not; the sort reducer in `exact`
serves all three.  Its scatter-min reducer takes large layers of solves
with int64 keys of boxes wider than 1 whose packed values fit in int64
at every pool a layer can reach, as decided once per solve (see
`exact`).  The drift check
compares integers only: loads and latenesses are integers, so a
difference is at most (i-1)*delta1 iff it is at most
floor((i-1)*delta1).  That floor is one
Python-integer division per layer, clamped at 2^61: values lie in
[0, MAX_MAGNITUDE = 2^60], so no difference can exceed the clamp, and
every sum stays inside int64 whatever the epsilon's denominator.  No
float touches any decision.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Iterator, Optional

import numpy as np

from .exact import _INT64_MAX, DEFAULT_STATE_BUDGET, Layer, SolveResult
from .exact import _Fold, _solve_layered, _sorted_layers
from .model import MAX_MAGNITUDE, Front, Instance, ParetoPoint

# Drift windows are clamped here: no two values in [0, MAX_MAGNITUDE]
# differ by more, and a value plus the clamp still fits in int64.
_WINDOW_CLAMP = 2 * MAX_MAGNITUDE


@dataclass(frozen=True)
class GridParams:
    """Exact grid geometry for one (instance, epsilon) pair.

    The trimming solver and the drift check use ``delta1`` only.
    ``delta2`` and ``lmax_bound`` describe the paper's lateness axis and
    feed no decision here; they are kept only because the benchmark's
    tracer (``perfbench/tracing.py``) reads them for ``fptas.box_fill``.
    """

    delta1: Fraction
    delta2: Fraction
    cmax_bound: int
    lmax_bound: int


def grid_params(inst: Instance, eps: Fraction) -> GridParams:
    """Box widths and objective upper bounds for the trimming solver.

    The bounds are what a single machine running everything would score:
    CMAX = P and LMAX = P + q_max, at most twice and three times the
    respective optima.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return GridParams(
        delta1=eps * Fraction(inst.total_p, 2 * inst.n),
        delta2=eps * Fraction(inst.total_p + inst.q_max, 3 * inst.n),
        cmax_bound=inst.total_p,
        lmax_bound=inst.total_p + inst.q_max,
    )


def solve_fptas(
    inst: Instance,
    eps: Fraction,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
) -> SolveResult:
    """Approximate Pareto front with (1+eps) coverage of the exact front.

    Identical to `solve_exact` except that the load boxes are delta1
    wide instead of 1.  Trimming only discards states, so every returned
    point is realized by its reconstructed schedule exactly.
    """
    return _solve_layered(inst, grid_params(inst, eps).delta1, budget)


def trimmed_layers(
    inst: Instance, eps: Fraction, *, budget: int = DEFAULT_STATE_BUDGET
) -> Iterator[Layer]:
    """Layers 1..n of `solve_fptas` on ``inst``, one at a time.  The
    stream keeps no layer it has yielded, and raises StateBudgetError at
    the layer where `solve_fptas` would."""
    return _sorted_layers(inst, grid_params(inst, eps).delta1, budget)


def find_coverage_violation(
    exact: Front, approx: Front, eps: Fraction
) -> Optional[ParetoPoint]:
    """First exact front point with no approximate point within (1+eps).

    Returns None when every exact point (C, L) has an approximate partner
    (C#, L#) with C# <= (1+eps) C and L# <= (1+eps) L, comparing exact
    integers throughout.
    """
    eps = Fraction(eps)
    num, den = eps.numerator, eps.denominator
    scale = den + num
    scaled_cmax = [pt.cmax * den for pt in approx.points]
    for pt in exact:
        # Within the C-eligible prefix of the approximate front, the last
        # point has the smallest lateness (fronts trade C against L).
        j = bisect_right(scaled_cmax, pt.cmax * scale) - 1
        if j < 0 or approx.points[j].lmax * den > pt.lmax * scale:
            return pt
    return None


def coverage_check(exact: Front, approx: Front, eps: Fraction) -> bool:
    """True iff the approximate front (1+eps)-covers the exact front."""
    return find_coverage_violation(exact, approx, eps) is None


@dataclass(frozen=True)
class ClosenessViolation:
    """An exact state, as its (cmax, lmax) point, with no approximate state
    inside its drift window in trimmed layer ``layer``."""

    layer: int
    point: ParetoPoint


def _cover_steps(ap_layer: Layer, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The smallest trimmed lateness within the window of a load, as a
    step function of the load: ``(steps, need)``.  An exact state (L, C)
    has a trimmed state (L#, C#) with |C# - C| <= window and
    L# - L <= window iff ``L >= need[s]``, for ``s`` the number of
    ``steps`` at most C.

    Trimmed state j covers the loads ``[C#_j - window, C#_j + window]``,
    so the steps start at the ``2m`` points ``C#_j - window`` and
    ``C#_j + window + 1``, sorted into ``steps``.  On the step from
    point ``b`` the smallest lateness is the minimum over the trimmed
    states with ``|C# - b| <= window``, a contiguous run of the sorted
    loads, and ``need[k + 1]`` is that minimum less the window for the
    step from ``steps[k]``.  ``need[0]``, below the first point, and
    every step over an empty run hold _INT64_MAX: they cover nothing.
    Loads lie in [0, 2^60] and the window is at most 2^61, so every run
    bound, at most ``C# + 2 * window + 2`` and at least
    ``C# - 2 * window``, fits in int64.
    """
    ap_cmax, m = ap_layer.cmax, len(ap_layer)
    steps = np.empty(2 * m, dtype=np.int64)
    np.subtract(ap_cmax, window, out=steps[:m])
    np.add(ap_cmax, window + 1, out=steps[m:])
    steps.sort(kind="stable")  # two ascending runs: one merge
    # Run [lo, hi) of each step, interleaved: loads are integers, so the
    # last load <= b + window is the last one < b + window + 1.
    bounds = np.empty(4 * m, dtype=np.int64)
    np.subtract(steps, window, out=bounds[0::2])
    np.add(steps, window + 1, out=bounds[1::2])
    bounds = ap_cmax.searchsorted(bounds, side="left")
    lo, hi = bounds[0::2], bounds[1::2]
    # Range minimum of the trimmed lmax over each run: reduceat over the
    # interleaved bounds reduces ap_lmax[lo:hi] at even positions.  The
    # sentinel keeps lo == len(ap_layer) a valid index; empty runs
    # (lo == hi) reduce to a single element, so they are set apart.
    ap_lmax = np.empty(m + 1, dtype=np.int64)
    ap_lmax[:m] = ap_layer.lmax
    ap_lmax[m] = _INT64_MAX
    need = np.empty(2 * m + 1, dtype=np.int64)
    need[0] = _INT64_MAX
    np.subtract(np.minimum.reduceat(ap_lmax, bounds)[0::2], window, out=need[1:])
    np.copyto(need[1:], _INT64_MAX, where=lo == hi)
    return steps, need


def _first_uncovered(
    ex_layer: Layer, steps: np.ndarray, need: np.ndarray
) -> Optional[ParetoPoint]:
    """The first exact state of a layer, in layer order, that the step
    function `_cover_steps` does not cover: each state finds its step
    by one binary search."""
    uncovered = need[steps.searchsorted(ex_layer.cmax, side="right")] > ex_layer.lmax
    (hits,) = uncovered.nonzero()
    if not len(hits):
        return None
    j = hits[0]
    return ParetoPoint(int(ex_layer.cmax[j]), int(ex_layer.lmax[j]))


def _first_uncovered_cell(
    fold: _Fold, steps: np.ndarray, need: np.ndarray
) -> Optional[ParetoPoint]:
    """The first reached cell of a fold of the dense table, in ascending
    makespan, that the step function `_cover_steps` does not cover, with
    the fold's offset added back to its lateness.

    The cells under one step are contiguous: the steps inside the fold's
    makespans cut it into segments, and one reduceat takes each
    segment's minimum.  The cells hold lateness less the fold's offset,
    so each ``need`` is lowered by it too, then clamped to the cell
    dtype's maximum, which unreached cells hold: they never read as
    uncovered, while reached cells below the first step still do.  A
    segment fails when its minimum is below its lowered ``need``.  Only
    the first failing segment is searched cell by cell.
    """
    folded, start = fold.lmax, int(fold.cmax[0])
    size = len(folded)
    # segments first..last: the first from cell 0, each other from a step
    first = int(np.searchsorted(steps, start, side="right"))
    last = int(np.searchsorted(steps, start + size - 1, side="right"))
    cuts = np.empty(last - first + 2, dtype=np.int64)
    cuts[0], cuts[-1] = 0, size
    np.subtract(steps[first:last], start, out=cuts[1:-1])
    need = np.minimum(need[first : last + 1] - fold.offset, np.iinfo(folded.dtype).max)
    # a repeated step leaves an empty segment, which reduceat reads as
    # the next cell: only non-empty segments can fail
    seg_min = np.minimum.reduceat(folded, cuts[:-1])
    failing = np.flatnonzero(seg_min < need)
    failing = failing[cuts[failing] < cuts[failing + 1]]
    if not len(failing):
        return None
    s = failing[0]
    lo, hi = cuts[s], cuts[s + 1]
    k = int(lo + np.argmax(folded[lo:hi] < need[s]))
    return ParetoPoint(start + k, int(folded[k]) + fold.offset)


def find_closeness_violation(
    exact_layers: Iterable[Layer],
    approx_layers: Iterable[Layer],
    grid: GridParams,
) -> Optional[ClosenessViolation]:
    """Check the per-layer drift bound of trimming, returning a witness.

    For every exact state (L, C) of layer i there must be an
    approximate state (L#, C#) in the trimmed layer i with

        L# <= L + (i-1) * delta1
        C - (i-1) * delta1 <= C# <= C + (i-1) * delta1.

    Returns the first uncovered exact state (first layer, then first in
    ascending load), or None when all layers pass.  The layers are read
    once, in pairs, exact first: any iterables serve, typically the
    streams `exact_layers` and `trimmed_layers`, and the check stops
    reading at the first violation.  Every load and lateness must lie in
    [0, MAX_MAGNITUDE].  Each approximate layer must be sorted by load
    (both solvers emit strictly ascending loads): per layer, the
    smallest trimmed lateness within the window of a load is built as a
    step function over the sorted trimmed loads, at most ``2m`` steps
    for ``m`` trimmed states.  ValueError is raised when a pair is
    reached whose numbers ``i`` differ, or whose approximate layer's
    loads decrease, or when one iterable ends before the other.

    An exact layer's states may be in any order: the first uncovered
    one in layer order is reported.  Each is checked by one binary
    search.  (On the dense route, verify passes the table's folds
    instead, as `exact` streams them privately, their cells holding
    lateness less the first job's delivery time; those are checked one
    contiguous run of cells per step against the steps lowered by that
    offset, with the same answer.)
    """
    num, den = grid.delta1.numerator, grid.delta1.denominator
    for ex_layer, ap_layer in zip_longest(exact_layers, approx_layers):
        if ex_layer is None or ap_layer is None:
            raise ValueError("layer sequences differ in length")
        i = ex_layer.i
        if i != ap_layer.i:
            raise ValueError(f"misaligned layers: {i} vs {ap_layer.i}")
        if (ap_layer.cmax[1:] < ap_layer.cmax[:-1]).any():
            raise ValueError(f"approximate layer {ap_layer.i} is not sorted by load")
        # Integer differences: comparing with floor((i-1) * delta1) is exact.
        window = min((i - 1) * num // den, _WINDOW_CLAMP)
        steps, need = _cover_steps(ap_layer, window)
        if isinstance(ex_layer, _Fold):
            point = _first_uncovered_cell(ex_layer, steps, need)
        else:
            point = _first_uncovered(ex_layer, steps, need)
        if point is not None:
            return ClosenessViolation(i, point)
    return None
