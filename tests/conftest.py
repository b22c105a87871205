from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from bipareto import DEFAULT_STATE_BUDGET, Front, GenSpec, ParetoPoint, generate_instance
from bipareto import exact as exact_module
from bipareto.exact import _layer_loop, _solve_layered, _sorted_layers


def make_instances(seed, count, n_range, p_range=(1, 20), q_range=(1, 20)):
    """Deterministic test instances drawn from the package's own generator."""
    spec = GenSpec(n_range, p_range, q_range, seed, count)
    return [generate_instance(spec, i) for i in range(count)]


def successor_pool(pairs):
    """``(lmax, cmax)`` int64 arrays of the given children in pool order."""
    return (
        np.array([l for l, _ in pairs], dtype=np.int64),
        np.array([c for _, c in pairs], dtype=np.int64),
    )


def sorted_solve(inst, budget=DEFAULT_STATE_BUDGET):
    """The exact solve on the sorted engine, whatever route `solve_exact`
    would take."""
    return _solve_layered(inst, Fraction(1), budget)


def sorted_peak(sizes):
    """The smallest budget the sorted engine solves in, given its layer
    sizes: before each layer ``i >= 2`` it counts the states of layers
    ``1..i-1`` plus a pool of twice layer ``i-1``."""
    return max((sum(sizes[:i]) + 2 * sizes[i - 1] for i in range(1, len(sizes))), default=1)


def table_cells(inst):
    """Cells the dense table fills: layer ``i`` spans flag-1 loads
    ``[p_1, S_i]``."""
    return sum(inst.prefix[1:]) - inst.n * (inst.jobs[0].p - 1)


def sorted_layers(inst):
    """The sorted engine's exact layers as a list."""
    return list(_sorted_layers(inst, Fraction(1), DEFAULT_STATE_BUDGET))


def sorted_loop(inst, width=Fraction(1)):
    """The sorted engine's ``(lmax, cmax, origin)`` arrays of layers 1..n,
    parents included, for load boxes of ``width``, as a list."""
    return list(_layer_loop(inst, width, DEFAULT_STATE_BUDGET))


def spy_exact(monkeypatch, name):
    """Record the argument of every call of ``exact.<name>``, a function
    of one argument: `_table_folds`, which streams the dense table's
    folds of an instance to `exact_layers` and to verify's drift check,
    or `_reached`, which `exact_layers` compacts each layer with.
    Returns the list it appends to."""
    calls, fn = [], getattr(exact_module, name)

    def spy(arg):
        calls.append(arg)
        return fn(arg)

    monkeypatch.setattr(exact_module, name, spy)
    return calls


def pareto_filter(points: Iterable[ParetoPoint]) -> Front:
    """Reduce a point collection to its non-dominated subset.

    Duplicates are dropped; the result is sorted by increasing makespan.
    An empty input yields an empty front.
    """
    kept: list[ParetoPoint] = []
    best_lmax: Optional[int] = None
    for point in sorted(set(points)):
        if best_lmax is None or point.lmax < best_lmax:
            kept.append(ParetoPoint(*point))
            best_lmax = point.lmax
    return Front(tuple(kept))
