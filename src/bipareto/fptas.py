"""Approximate Pareto front via state trimming, with a (1+eps) guarantee.

The trimming solver runs the same layered recurrence as the exact one but
keeps one state per occupied load box floor(C / delta1): the one with the
smallest lateness, ties to the earliest generated.  Trimmed layers keep
their states in generation order.  The paper's grid also cuts the
lateness axis into boxes of width delta2 = eps * (P + q_max) / (3 n);
this one does not, and so has up to 3n/eps + 1 times fewer boxes per
layer.  A kept state is less than delta1 from each state it replaces in
load and not above it in lateness, and expansion widens neither error
(children are maxima of sums of C, S_i - C and L), so after i jobs both
drifts stay within (i-1)*delta1.  With

    delta1 = eps * P / (2 n)          CMAX = P

and P <= 2 C <= 2 L at every front point (C, L), the drift after n jobs
is below eps * C and eps * L: every exact front point is covered by an
approximate point within (1+eps) * C and (1+eps) * L.  The per-layer
drift is checkable directly: `find_closeness_violation` looks, for every
exact state of every layer i, for a trimmed state within (i-1)*delta1
of it in load and at most (i-1)*delta1 above it in lateness, and
returns the first exact state that has none.

All grid arithmetic is exact: deltas are `fractions.Fraction`, box
indices are integer floor divisions, and the coverage predicate
cross-multiplies integers.  Box keys are int64 arrays when the scaled
loads fit in int64, and object arrays of Python integers when they do
not; one reducer serves both.  The drift check compares integers
only: loads and latenesses are integers, so a difference is at most
(i-1)*delta1 iff it is at most floor((i-1)*delta1).  That floor is one
Python-integer division per layer, clamped at 2^61: values lie in
[0, MAX_MAGNITUDE = 2^60], so no difference can exceed the clamp, and
every sum stays inside int64 whatever the epsilon's denominator.  No
float touches any decision.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import (
    DEFAULT_STATE_BUDGET,
    Layer,
    SolveResult,
    _min_lmax_per_key,
    _Successors,
    _solve_layered,
)
from .model import MAX_MAGNITUDE, Front, Instance, ParetoPoint

# An epsilon is any positive exact rational.
Epsilon = Fraction

_INT64_MAX = 2**63 - 1

# Drift windows are clamped here: no two values in [0, MAX_MAGNITUDE]
# differ by more, and a value plus the clamp still fits in int64.
_WINDOW_CLAMP = 2 * MAX_MAGNITUDE


def parse_epsilon(text: str) -> Fraction:
    """Exact rational from a decimal or fraction literal ("0.3", "3/10").

    Decimal strings are scanned digit-wise by Fraction, so "0.3" becomes
    exactly 3/10, never a binary float.
    """
    try:
        eps = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid epsilon {text!r}: {exc}") from None
    if eps <= 0:
        raise ValueError(f"invalid epsilon {text!r}: must be positive")
    return eps


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


def grid_params(inst: Instance, eps: Epsilon) -> GridParams:
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


def box_index(value: int, delta: Fraction) -> int:
    """Index of the grid box containing ``value``, for box width ``delta``.

    Computed as floor(value / delta) in exact integer arithmetic; a value
    sitting exactly on a boundary belongs to the higher-index box.
    """
    if value < 0:
        raise ValueError(f"box_index requires value >= 0, got {value}")
    return value * delta.denominator // delta.numerator


def _make_trim_reducer(grid: GridParams):
    """Reducer keeping one state per occupied load box: the exact solver's
    per-load rule keyed on floor(C / delta1), with no lateness boxes."""
    num1, den1 = grid.delta1.numerator, grid.delta1.denominator
    # Box keys are int64 when the scaled loads fit, and otherwise object
    # arrays of exact Python integers; both dtypes run the same sort.
    fits_int64 = num1 <= _INT64_MAX and grid.cmax_bound * den1 <= _INT64_MAX
    dtype = np.int64 if fits_int64 else object

    def reducer(pool: _Successors) -> np.ndarray:
        key = pool.cmax.astype(dtype, copy=False) * den1 // num1
        # Winners come back sorted by pool index, i.e. in generation
        # order, which is the order trimmed layers keep.
        return np.sort(_min_lmax_per_key(key, pool.lmax))

    return reducer


def solve_fptas(
    inst: Instance,
    eps: Epsilon,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
    keep_layers: bool = False,
) -> SolveResult:
    """Approximate Pareto front with (1+eps) coverage of the exact front.

    Identical to `solve_exact` except that each layer is trimmed to one
    representative per load box.  Trimming only discards states, so every
    returned point is realized by its reconstructed schedule exactly.
    """
    grid = grid_params(inst, eps)
    return _solve_layered(inst, _make_trim_reducer(grid), budget, keep_layers)


def find_coverage_violation(
    exact: Front, approx: Front, eps: Epsilon
) -> Optional[ParetoPoint]:
    """First exact front point with no approximate point within (1+eps).

    Returns None when every exact point (C, L) has an approximate partner
    (C#, L#) with C# <= (1+eps) C and L# <= (1+eps) L, comparing exact
    integers throughout.
    """
    eps = Fraction(eps)
    num, den = eps.numerator, eps.denominator
    scale = den + num
    if len(approx) == 0:
        return exact.points[0] if len(exact) else None
    scaled_cmax = [pt.cmax * den for pt in approx.points]
    for pt in exact:
        # Within the C-eligible prefix of the approximate front, the last
        # point has the smallest lateness (fronts trade C against L).
        j = bisect_right(scaled_cmax, pt.cmax * scale) - 1
        if j < 0 or approx.points[j].lmax * den > pt.lmax * scale:
            return pt
    return None


def coverage_check(exact: Front, approx: Front, eps: Epsilon) -> bool:
    """True iff the approximate front (1+eps)-covers the exact front."""
    return find_coverage_violation(exact, approx, eps) is None


@dataclass(frozen=True)
class ClosenessViolation:
    """An exact state, as its (cmax, lmax) point, with no approximate state
    inside its drift window in trimmed layer ``layer``."""

    layer: int
    point: ParetoPoint


def _first_uncovered(ex_layer: Layer, ap_layer: Layer, window: int) -> Optional[int]:
    """Index of the first exact state with no trimmed state (L#, C#) such
    that |C# - C| <= window and L# - L <= window."""
    order = np.argsort(ap_layer.cmax)
    ap_cmax = ap_layer.cmax[order]
    lo = np.searchsorted(ap_cmax, ex_layer.cmax - window, side="left")
    hi = np.searchsorted(ap_cmax, ex_layer.cmax + window, side="right")
    # Range minimum of the trimmed lmax over each window [lo, hi): reduceat
    # over interleaved bounds reduces ap_lmax[lo:hi] at even positions.
    # The sentinel keeps lo == len(ap_layer) a valid index; empty windows
    # (lo == hi) reduce to a single element, so they are flagged apart.
    ap_lmax = np.append(ap_layer.lmax[order], np.int64(_INT64_MAX))
    bounds = np.empty(2 * len(lo), dtype=np.int64)
    bounds[0::2] = lo
    bounds[1::2] = hi
    window_min = np.minimum.reduceat(ap_lmax, bounds)[0::2]
    uncovered = (lo >= hi) | (window_min > ex_layer.lmax + window)
    hits = np.flatnonzero(uncovered)
    return int(hits[0]) if len(hits) else None


def find_closeness_violation(
    exact_layers: Sequence[Layer],
    approx_layers: Sequence[Layer],
    grid: GridParams,
) -> Optional[ClosenessViolation]:
    """Check the per-layer drift bound of trimming, returning a witness.

    For every exact state (L, C) of layer i there must be an
    approximate state (L#, C#) in the trimmed layer i with

        L# <= L + (i-1) * delta1
        C - (i-1) * delta1 <= C# <= C + (i-1) * delta1.

    Returns the first uncovered exact state (first layer, then first in
    layer order, which is ascending load), or None when all layers pass.
    Both solvers must have run with ``keep_layers=True``; every load and
    lateness must lie in [0, MAX_MAGNITUDE].
    """
    if len(exact_layers) != len(approx_layers):
        raise ValueError("layer sequences differ in length")
    num, den = grid.delta1.numerator, grid.delta1.denominator
    for ex_layer, ap_layer in zip(exact_layers, approx_layers):
        if ex_layer.i != ap_layer.i:
            raise ValueError(f"misaligned layers: {ex_layer.i} vs {ap_layer.i}")
        i = ex_layer.i
        # Integer differences: comparing with floor((i-1) * delta1) is exact.
        window = min((i - 1) * num // den, _WINDOW_CLAMP)
        j = _first_uncovered(ex_layer, ap_layer, window)
        if j is not None:
            return ClosenessViolation(i, ParetoPoint(int(ex_layer.cmax[j]), int(ex_layer.lmax[j])))
    return None
