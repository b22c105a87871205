"""Approximate Pareto front via state trimming, with a (1+eps) guarantee.

The trimming solver runs the same layered recurrence as the exact one but
collapses each layer onto a rectangular grid: the load axis [0, CMAX] is
cut into boxes of exact-rational width delta1 and the lateness axis
[0, LMAX] into boxes of width delta2, and only one representative state
survives per occupied box.  With

    delta1 = eps * P / (2 n)          CMAX = P
    delta2 = eps * (P + q_max) / (3 n)   LMAX = P + q_max

every exact front point (C, L) is covered by an approximate point within
(1+eps) * C and (1+eps) * L.  The per-layer drift that adds up to this
bound is checkable directly: `verify_trim_closeness` asserts, for every
exact state of every layer i, an approximate state within i*delta1 on the
load axis and i*max(delta1, delta2) above on the lateness axis.

All grid arithmetic is exact: deltas are `fractions.Fraction`, box
indices are integer floor divisions, and the comparison predicates
cross-multiply integers.  No float touches any decision.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import (
    DEFAULT_STATE_BUDGET,
    Layer,
    SolveResult,
    _chain_depth,
    _first_per_group,
    _Successors,
    _solve_layered,
)
from .model import DpState, Front, Instance, ParetoPoint

# An epsilon is any positive exact rational.
Epsilon = Fraction

_INT64_MAX = 2**63 - 1


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
    """Exact grid geometry for one (instance, epsilon) pair."""

    delta1: Fraction
    delta2: Fraction
    cmax_bound: int
    lmax_bound: int
    n: int
    total_p: int
    q_max: int


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
        n=inst.n,
        total_p=inst.total_p,
        q_max=inst.q_max,
    )


def box_index(value: int, delta: Fraction) -> int:
    """Index of the grid box containing ``value``, for box width ``delta``.

    Computed as floor(value / delta) in exact integer arithmetic; a value
    sitting exactly on a boundary belongs to the higher-index box.
    """
    if value < 0:
        raise ValueError(f"box_index requires value >= 0, got {value}")
    return value * delta.denominator // delta.numerator


def trim(states: Sequence[DpState], grid: GridParams) -> Layer:
    """Keep one representative state per occupied (lateness, load) box.

    The representative is the state with minimal lateness, then minimal
    load, then earliest generation (input order).  Representatives stay
    in input order.
    """
    if not states:
        raise ValueError("trim requires at least one state")
    best: dict[tuple[int, int], tuple[tuple[int, int, int], DpState]] = {}
    for pos, state in enumerate(states):
        key = (box_index(state.lmax, grid.delta2), box_index(state.cmax, grid.delta1))
        rank = (state.lmax, state.cmax, pos)
        cur = best.get(key)
        if cur is None or rank < cur[0]:
            best[key] = (rank, state)
    kept = tuple(state for rank, state in sorted(best.values(), key=lambda item: item[0][2]))
    return Layer(_chain_depth(kept[0]), kept)


def _make_trim_reducer(grid: GridParams):
    num1, den1 = grid.delta1.numerator, grid.delta1.denominator
    num2, den2 = grid.delta2.numerator, grid.delta2.denominator
    c_boxes = box_index(grid.cmax_bound, grid.delta1) + 1
    l_boxes = box_index(grid.lmax_bound, grid.delta2) + 1

    # The vectorized path needs every scaled product and the combined box
    # key inside int64; otherwise fall back to exact Python integers.  Both
    # return the winners sorted by pool index, i.e. in generation order,
    # which is the order trimmed layers keep.
    vector_safe = (
        max(num1, num2) <= _INT64_MAX
        and grid.cmax_bound * den1 <= _INT64_MAX
        and grid.lmax_bound * den2 <= _INT64_MAX
        and l_boxes * c_boxes <= _INT64_MAX
    )

    if vector_safe:

        def reducer(pool: _Successors) -> np.ndarray:
            box_l = (pool.lmax * den2) // num2
            box_c = (pool.cmax * den1) // num1
            key = box_l * c_boxes + box_c
            # lexsort is stable and pool order is generation order, so
            # ties after (lmax, cmax) go to the earliest generated.
            order = np.lexsort((pool.cmax, pool.lmax, key))
            return np.sort(_first_per_group(key, order))

    else:

        def reducer(pool: _Successors) -> np.ndarray:
            lmax = pool.lmax.tolist()
            cmax = pool.cmax.tolist()
            best: dict[tuple[int, int], tuple[tuple[int, int], int]] = {}
            for j in range(len(lmax)):
                key = (lmax[j] * den2 // num2, cmax[j] * den1 // num1)
                rank = (lmax[j], cmax[j])
                cur = best.get(key)
                if cur is None or rank < cur[0]:
                    best[key] = (rank, j)
            winners = np.fromiter(
                (j for _, j in best.values()), dtype=np.int64, count=len(best)
            )
            return np.sort(winners)

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
    representative per grid box.  Trimming only discards states, so every
    returned point is realized by its reconstructed schedule exactly.
    """
    grid = grid_params(inst, eps)
    return _solve_layered(inst, lambda: _make_trim_reducer(grid), budget, keep_layers)


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
    """An exact state with no approximate state inside its drift window."""

    layer: int
    state: DpState


def find_closeness_violation(
    exact_layers: Sequence[Layer],
    approx_layers: Sequence[Layer],
    grid: GridParams,
) -> Optional[ClosenessViolation]:
    """Check the per-layer drift bounds of trimming, returning a witness.

    For every exact state (L, C) of layer i there must be an
    approximate state (L#, C#) in the trimmed layer i with

        L# <= L + i * max(delta1, delta2)
        C - i * delta1 <= C# <= C + i * delta1.

    Returns the first uncovered exact state, or None when all layers
    pass.  Both solvers must have run with ``keep_layers=True``.
    """
    if len(exact_layers) != len(approx_layers):
        raise ValueError("layer sequences differ in length")
    delta_max = max(grid.delta1, grid.delta2)
    a1, b1 = grid.delta1.numerator, grid.delta1.denominator
    am, bm = delta_max.numerator, delta_max.denominator
    for ex_layer, ap_layer in zip(exact_layers, approx_layers):
        if ex_layer.i != ap_layer.i:
            raise ValueError(f"misaligned layers: {ex_layer.i} vs {ap_layer.i}")
        i = ex_layer.i
        scaled = sorted((s.cmax * b1, s.lmax * bm) for s in ap_layer.states)
        load_keys = [c for c, _ in scaled]
        load_slack = i * a1
        lateness_slack = i * am
        for state in ex_layer.states:
            window_lo = state.cmax * b1 - load_slack
            window_hi = state.cmax * b1 + load_slack
            lateness_cap = state.lmax * bm + lateness_slack
            found = False
            for j in range(bisect_left(load_keys, window_lo), len(scaled)):
                if scaled[j][0] > window_hi:
                    break
                if scaled[j][1] <= lateness_cap:
                    found = True
                    break
            if not found:
                return ClosenessViolation(i, state)
    return None


def verify_trim_closeness(
    exact_layers: Sequence[Layer],
    approx_layers: Sequence[Layer],
    grid: GridParams,
) -> bool:
    """True iff every exact state of every layer has a close trimmed state."""
    return find_closeness_violation(exact_layers, approx_layers, grid) is None
