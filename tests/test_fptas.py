import json
from bisect import bisect_left
from dataclasses import fields
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipareto import (
    DEFAULT_STATE_BUDGET,
    MAX_MAGNITUDE,
    ClosenessViolation,
    Front,
    GridParams,
    Layer,
    ParetoPoint,
    StateBudgetError,
    box_index,
    coverage_check,
    evaluate_schedule,
    exact_layers,
    find_closeness_violation,
    find_coverage_violation,
    grid_params,
    normalize,
    solve_exact,
    solve_fptas,
    trimmed_layers,
)
from bipareto import exact as exact_module
from bipareto.exact import (
    _INT64_MAX,
    _Fold,
    _box_key,
    _min_lmax_per_key,
    _scatter_min_per_key,
    _table_sizes,
)
from conftest import (
    make_instances,
    pareto_filter,
    sorted_layers,
    sorted_loop,
    sorted_peak,
    sorted_solve,
    spy_exact,
    successor_pool,
    table_cells,
)

WORKED = [(2, 5), (3, 4), (4, 1)]


def test_grid_params_direct_substitution():
    grid = grid_params(normalize(WORKED), Fraction(1))
    assert (grid.delta1, grid.delta2) == (Fraction(3, 2), Fraction(14, 9))
    assert (grid.cmax_bound, grid.lmax_bound) == (9, 14)

    # P=20, q_max=20, n=5
    inst = normalize([(4, 20), (4, 3), (4, 2), (4, 1), (4, 0)])
    grid = grid_params(inst, Fraction(3, 10))
    assert (grid.delta1, grid.delta2) == (Fraction(3, 5), Fraction(4, 5))

    # P=100, q_max=0, n=10
    inst = normalize([(10, 0)] * 10)
    grid = grid_params(inst, Fraction(9, 10))
    assert (grid.delta1, grid.delta2) == (Fraction(9, 2), Fraction(3))

    with pytest.raises(ValueError):
        grid_params(inst, Fraction(0))


def test_box_index():
    assert box_index(5, Fraction(3, 2)) == 3
    assert box_index(0, Fraction(3, 2)) == 0
    assert box_index(0, Fraction(7, 13)) == 0
    # exact boundary belongs to the higher box's lower edge
    assert box_index(9, Fraction(3, 2)) == 6
    with pytest.raises(ValueError):
        box_index(-1, Fraction(3, 2))


def worked_grid():
    return grid_params(normalize(WORKED), Fraction(1))  # delta1=3/2, delta2=14/9


def trim_winners(pairs, grid):
    """Pool indices kept from a pool of (lmax, cmax) children on the
    grid's load boxes, with the grid's own box keys and with object keys
    wherever delta1 > 1."""
    lmax, cmax = successor_pool(pairs)
    keys = [_box_key(grid.delta1, grid.cmax_bound)[0]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_module, "_INT64_MAX", 0)  # force object box keys
        keys.append(_box_key(grid.delta1, grid.cmax_bound)[0])
    return [_min_lmax_per_key(key(cmax), lmax).tolist() for key in keys]


def reference_trim_winners(pairs, grid):
    """Scalar trim in Python integers: per occupied load box, the child
    with the smallest lmax, ties to the earliest in the pool.  Returns the
    winners' pool indices in ascending box order."""
    best = {}
    for j, (lmax, cmax) in enumerate(pairs):
        box = box_index(cmax, grid.delta1)
        if box not in best or lmax < best[box][0]:
            best[box] = (lmax, j)
    return [j for _, (_, j) in sorted(best.items())]


def test_trim_merges_identical_values():
    # same box, earliest generated wins
    assert trim_winners([(9, 5), (9, 5)], worked_grid()) == [[0]] * 2


def test_trim_keeps_distinct_boxes():
    # load boxes 4 and 5; trimming keeps dominated states
    assert trim_winners([(7, 6), (8, 8)], worked_grid()) == [[0, 1]] * 2
    # winners come back in load order, not pool order
    assert trim_winners([(8, 8), (7, 6)], worked_grid()) == [[1, 0]] * 2
    # lateness does not split a load box: loads 6 and 7 share box 4
    assert trim_winners([(8, 7), (7, 6)], worked_grid()) == [[1]] * 2


def test_trim_boundary_straddle():
    # loads 2 and 3 differ by less than delta1 yet straddle a box edge
    assert box_index(2, Fraction(3, 2)) == 1
    assert box_index(3, Fraction(3, 2)) == 2
    assert trim_winners([(5, 2), (5, 3)], worked_grid()) == [[0, 1]] * 2


def test_trim_representative_rank():
    grid = GridParams(delta1=Fraction(10), delta2=Fraction(10), cmax_bound=9, lmax_bound=9)
    # one giant box: minimal lateness, then earliest; the load breaks no tie
    pool = [(5, 9), (4, 8), (4, 6), (4, 6)]
    assert trim_winners(pool, grid) == [[1]] * 2
    assert trim_winners(pool[::-1], grid) == [[0]] * 2


def test_solve_fptas_worked_instance():
    inst = normalize(WORKED)
    exact = solve_exact(inst)
    eps = Fraction(3, 10)
    approx = solve_fptas(inst, eps)
    assert coverage_check(exact.front, approx.front, eps)
    # exact point (5, 9) needs an approximate point at most (6.5, 11.7)
    assert any(pt.cmax * 10 <= 65 and pt.lmax * 10 <= 117 for pt in approx.front)
    for sched, point in zip(approx.schedules, approx.front):
        assert evaluate_schedule(inst, sched) == point


def test_solve_fptas_degenerate():
    assert solve_fptas(normalize([(7, 3)]), Fraction(9, 10)).front.points == (
        ParetoPoint(7, 10),
    )


def test_solve_fptas_tiny_epsilon_degenerates_to_exact():
    # delta1 below 1: every load is its own box, so the trimmed solver
    # builds the exact solver's layers, parents and witnesses
    for inst in make_instances(23, 15, (2, 9), (1, 9), (1, 9)):
        eps = Fraction(1, 6 * inst.n)
        grid = grid_params(inst, eps)
        assert grid.delta1 < 1 and grid.delta2 < 1
        exact = sorted_solve(inst)
        approx = solve_fptas(inst, eps)
        assert approx.front.points == exact.front.points
        layer_pairs = zip(trimmed_layers(inst, eps), sorted_layers(inst), strict=True)
        for ap_layer, ex_layer in layer_pairs:
            assert ap_layer.i == ex_layer.i
            assert np.array_equal(ap_layer.lmax, ex_layer.lmax)
            assert np.array_equal(ap_layer.cmax, ex_layer.cmax)
        # the engine at width delta1 keeps the same parents as at width 1
        loop_pairs = zip(sorted_loop(inst, grid.delta1), sorted_loop(inst), strict=True)
        for ap_arrays, ex_arrays in loop_pairs:
            for ap_array, ex_array in zip(ap_arrays, ex_arrays, strict=True):
                assert np.array_equal(ap_array, ex_array)
        assert approx.schedules == exact.schedules


def test_fptas_layers_ascend_in_load_and_box():
    for inst in make_instances(13, 25, (2, 14), (1, 100), (1, 100)):
        for eps in (Fraction(3, 10), Fraction(9, 10), Fraction(2)):
            grid = grid_params(inst, eps)
            for layer in trimmed_layers(inst, eps):
                loads = layer.cmax.tolist()
                boxes = [box_index(c, grid.delta1) for c in loads]
                # one state per load box, in strictly ascending load
                assert all(a < b for a, b in zip(loads, loads[1:]))
                assert all(a < b for a, b in zip(boxes, boxes[1:]))


def test_coverage_check_examples():
    exact = Front((ParetoPoint(5, 9), ParetoPoint(6, 7)))
    assert coverage_check(exact, exact, Fraction(1, 1000))

    single = Front((ParetoPoint(10, 20),))
    assert coverage_check(single, Front((ParetoPoint(13, 20),)), Fraction(3, 10))
    assert not coverage_check(single, Front((ParetoPoint(14, 20),)), Fraction(3, 10))


def test_find_coverage_violation_witness():
    exact = Front((ParetoPoint(5, 9), ParetoPoint(6, 7)))
    shifted = Front((ParetoPoint(5, 9), ParetoPoint(6, 8)))
    eps = Fraction(1, 100)
    violation = find_coverage_violation(exact, shifted, eps)
    assert violation == ParetoPoint(6, 7)  # 8 > (1+eps) * 7
    assert find_coverage_violation(exact, exact, eps) is None
    assert find_coverage_violation(exact, Front(()), eps) == ParetoPoint(5, 9)
    assert find_coverage_violation(Front(()), Front(()), eps) is None


def test_closeness_base_case_and_identity():
    inst = normalize(WORKED)
    layers = list(exact_layers(inst))
    grid = worked_grid()
    first = layers[:1]
    assert find_closeness_violation(first, first, grid) is None
    # identity trimming satisfies the drift bounds with slack zero
    assert find_closeness_violation(layers, layers, grid) is None


def test_closeness_worked_instance():
    inst = normalize(WORKED)
    eps = Fraction(1)
    grid = grid_params(inst, eps)
    assert find_closeness_violation(exact_layers(inst), trimmed_layers(inst, eps), grid) is None


def array_layer(i, pairs):
    """A layer holding the given (lmax, cmax) states."""
    return Layer(
        i,
        lmax=np.array([l for l, _ in pairs], dtype=np.int64),
        cmax=np.array([c for _, c in pairs], dtype=np.int64),
    )


def as_fold(layer, dtype=np.int32):
    """A layer of distinct loads as the dense table's fold of it: one
    cell per load from the smallest to the largest, holding the dtype's
    maximum where no state has that load."""
    start, stop = int(layer.cmax.min()), int(layer.cmax.max()) + 1
    folded = np.full(stop - start, np.iinfo(dtype).max, dtype=dtype)
    folded[layer.cmax - start] = layer.lmax
    return _Fold(layer.i, folded, np.arange(start, stop, dtype=dtype))


def reference_closeness_violation(exact_layers, approx_layers, grid):
    """Scalar drift check: values scaled by delta1's denominator, a
    bisect per exact state.  Returns (layer, point) of the first exact
    state with no trimmed state inside its window, or None."""
    num, den = grid.delta1.numerator, grid.delta1.denominator
    for ex_layer, ap_layer in zip(exact_layers, approx_layers):
        i = ex_layer.i
        scaled = sorted(
            (c * den, l * den) for c, l in zip(ap_layer.cmax.tolist(), ap_layer.lmax.tolist())
        )
        load_keys = [c for c, _ in scaled]
        slack = (i - 1) * num
        for c, l in zip(ex_layer.cmax.tolist(), ex_layer.lmax.tolist()):
            window_lo = c * den - slack
            window_hi = c * den + slack
            lateness_cap = l * den + slack
            found = False
            for j in range(bisect_left(load_keys, window_lo), len(scaled)):
                if scaled[j][0] > window_hi:
                    break
                if scaled[j][1] <= lateness_cap:
                    found = True
                    break
            if not found:
                return i, ParetoPoint(c, l)
    return None


def closeness_witness(exact_layers, approx_layers, grid):
    """(layer, point) from `find_closeness_violation`, after checking that
    the scalar reference reports the same."""
    violation = find_closeness_violation(exact_layers, approx_layers, grid)
    found = None if violation is None else (violation.layer, violation.point)
    assert reference_closeness_violation(exact_layers, approx_layers, grid) == found
    return found


def test_closeness_violation_witness():
    inst = normalize(WORKED)
    layers = list(exact_layers(inst))
    # a far-off approximate layer cannot be close to anything
    fake = [array_layer(layer.i, [(10**6, 10**6)]) for layer in layers]
    grid = worked_grid()
    assert closeness_witness(layers, fake, grid) == (1, ParetoPoint(2, 7))

    # With delta1 = 3/2 the windows of layers 1, 2 and 3 are 0, 1 and 3.
    # Layer 1 holds (lmax, cmax) = (7, 2): only a trimmed (7, 2) or below
    # covers it.  Load 3 and lateness 8 lie inside the paper's windows,
    # floor(3/2) = 1 in load and floor(14/9) = 1 in lateness, but not
    # inside (1-1) * delta1 = 0.
    outside = (1, ParetoPoint(2, 7))
    for state, expected in (((7, 2), None), ((6, 2), None), ((7, 3), outside),
                            ((7, 1), outside), ((8, 2), outside)):
        moved = [array_layer(1, [state])] + layers[1:]
        assert closeness_witness(layers, moved, grid) == expected
    # Layer 2 holds (7, 3) and (9, 5); a trimmed (7, C#) next to a kept
    # (9, 5) covers (7, 3) on both load edges 2 and 4, not at 1 or 5, and
    # a trimmed (8, 3) sits on its lateness edge, (9, 3) above it.
    outside = (2, ParetoPoint(3, 7))
    for state, expected in (((7, 2), None), ((7, 4), None), ((7, 1), outside),
                            ((7, 5), outside), ((8, 3), None), ((9, 3), outside)):
        moved = layers[:1] + [array_layer(2, [state, (9, 5)])] + layers[2:]
        assert closeness_witness(layers, moved, grid) == expected
    # Layer 3 holds (9, 5), (7, 6), (8, 7), (10, 9).  A lone trimmed
    # (11, 8) covers (9, 5) on its load edge and (8, 7) exactly on its
    # lateness bound, but is 4 > 3 above (7, 6).
    lone = layers[:2] + [array_layer(3, [(11, 8)])]
    assert closeness_witness(layers, lone, grid) == (3, ParetoPoint(6, 7))
    # an empty trimmed layer leaves its first exact state uncovered
    empty = layers[:2] + [array_layer(3, [])]
    assert closeness_witness(layers, empty, grid) == (3, ParetoPoint(5, 9))
    # delta2 widens no window: with delta1 = 1 < delta2 = 3, a layer-2
    # state 2 above the exact one is outside (2-1) * delta1 = 1.
    wide = GridParams(delta1=Fraction(1), delta2=Fraction(3), cmax_bound=9, lmax_bound=9)
    exact_2, above = [array_layer(2, [(5, 5)])], [array_layer(2, [(7, 5)])]
    assert closeness_witness(exact_2, above, wide) == (2, ParetoPoint(5, 5))


def test_closeness_rejects_misaligned_layers():
    layers = list(exact_layers(normalize(WORKED)))
    with pytest.raises(ValueError, match="length"):
        find_closeness_violation(layers, layers[:2], worked_grid())
    swapped = (layers[1], layers[0], layers[2])
    with pytest.raises(ValueError, match="misaligned"):
        find_closeness_violation(layers, swapped, worked_grid())
    # the windows are binary searches on cmax: unsorted loads are refused
    unsorted = Layer(2, np.array([9, 9]), np.array([5, 3]))
    with pytest.raises(ValueError, match="not sorted"):
        find_closeness_violation(layers, (layers[0], unsorted, layers[2]), worked_grid())


def test_closeness_reads_one_shot_streams():
    inst = normalize(WORKED)
    eps = Fraction(1)
    grid = grid_params(inst, eps)
    reads = []

    def once(name, layers):
        for layer in layers:
            reads.append((name, layer.i))
            yield layer

    exact, approx = once("exact", exact_layers(inst)), once("approx", trimmed_layers(inst, eps))
    assert find_closeness_violation(exact, approx, grid) is None
    # pair by pair, each layer read once, and both streams read to the end
    assert reads == [(name, i) for i in (1, 2, 3) for name in ("exact", "approx")]
    assert next(exact, None) is None and next(approx, None) is None
    # streams of unequal length, either one the shorter
    layers = list(exact_layers(inst))
    for short, full in ((layers[:2], layers), (layers, layers[:2])):
        with pytest.raises(ValueError, match="length"):
            find_closeness_violation(iter(short), iter(full), grid)
    # an unsorted trimmed layer is refused when the check reaches it ...
    unsorted = Layer(2, np.array([9, 9]), np.array([5, 3]))
    with pytest.raises(ValueError, match="approximate layer 2 is not sorted"):
        find_closeness_violation(iter(layers), iter([layers[0], unsorted, layers[2]]), grid)
    # ... and not at all when a violation in an earlier layer ends the check
    far = array_layer(1, [(10**6, 10**6)])
    stream = iter([far, unsorted, layers[2]])
    found = find_closeness_violation(iter(layers), stream, grid)
    assert (found.layer, found.point) == (1, ParetoPoint(2, 7))
    assert next(stream) is unsorted


@st.composite
def closeness_jobs(draw, kinds=("single", "small", "wide", "huge_p")):
    """Job lists for the drift check, at its edges."""
    kind = draw(st.sampled_from(kinds))
    if kind == "single":
        return [(draw(st.integers(1, 2**59)), draw(st.integers(0, 2**59)))]
    if kind == "huge_p":
        # one or two loads near 2^59; the total stays under MAX_MAGNITUDE
        n = draw(st.integers(1, 6))
        big = draw(st.integers(1, min(2, n)))
        ps = [draw(st.integers(2**59 - 2**20, 2**59 - 2**19)) for _ in range(big)]
        ps += [draw(st.integers(1, 2**16)) for _ in range(n - big)]
        qs = [draw(st.integers(0, 2**16)) for _ in range(n)]
        return list(zip(draw(st.permutations(ps)), qs))
    n = draw(st.integers(1, 9))
    if kind == "ties":  # one job repeated: every layer collides on load and lateness
        return [(draw(st.integers(1, 30)), draw(st.integers(0, 30)))] * n
    if kind == "equal_p":
        p = draw(st.integers(1, 30))
        return [(p, draw(st.integers(0, 50))) for _ in range(n)]
    if kind == "even_p":  # no odd load is reached: the folds have unreached cells
        return [(2 * draw(st.integers(1, 15)), draw(st.integers(0, 30))) for _ in range(n)]
    if kind == "big_q":  # P + q_max >= 2**31 - 1: the dense table's cells are int64
        return [(draw(st.integers(1, 30)), draw(st.integers(2**31, 2**40))) for _ in range(n)]
    p_hi = 30 if kind == "small" else 10**12
    return [(draw(st.integers(1, p_hi)), draw(st.integers(0, p_hi))) for _ in range(n)]


EPSILONS = st.one_of(
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)),
    # denominators beyond 64 bits
    st.builds(Fraction, st.integers(1, 2**70), st.integers(2**64 + 1, 2**80)),
    st.just(Fraction(1, 10**20)),
    st.just(Fraction(10**19 + 1, 10**19)),
    # windows beyond the 2^61 clamp
    st.just(Fraction(10**30)),
)


def jitter(rng, w, size):
    """Offsets in [-2w-2, 2w+2], about half of them on the window edges
    -w-1, -w, w and w+1."""
    edges = rng.choice(np.array([-w - 1, -w, w, w + 1], dtype=np.int64), size)
    wide = rng.integers(-2 * w - 2, 2 * w + 3, size)
    return np.where(rng.random(size) < 0.5, edges, wide)


def perturbed_layers(layers, grid, rng, subsample, shift):
    """Trimmed layers with states dropped and values moved about their
    drift window, clipped to [0, MAX_MAGNITUDE], each sorted by load as
    `find_closeness_violation` requires."""
    out = []
    for layer in layers:
        lmax, cmax = layer.lmax, layer.cmax
        if subsample:
            keep = rng.random(len(layer)) < 0.5
            lmax, cmax = lmax[keep], cmax[keep]
        if shift:
            w = min(int((layer.i - 1) * grid.delta1), MAX_MAGNITUDE)
            cmax = np.clip(cmax + jitter(rng, w, len(cmax)), 0, MAX_MAGNITUDE)
            lmax = np.clip(lmax + jitter(rng, w, len(lmax)), 0, MAX_MAGNITUDE)
            order = np.argsort(cmax, kind="stable")
            lmax, cmax = lmax[order], cmax[order]
        out.append(Layer(layer.i, lmax=lmax, cmax=cmax))
    return out


@settings(max_examples=300, deadline=None)
@given(
    jobs=closeness_jobs(),
    eps=EPSILONS,
    mode=st.sampled_from(["real", "subsampled", "shifted", "both", "identity"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_vectorized_closeness_matches_reference(jobs, eps, mode, seed):
    inst = normalize(jobs)
    grid = grid_params(inst, eps)
    exact = list(exact_layers(inst))
    if mode == "identity":
        approx = exact
    else:
        rng = np.random.default_rng(seed)
        approx = perturbed_layers(
            trimmed_layers(inst, eps),
            grid,
            rng,
            mode in ("subsampled", "both"),
            mode in ("shifted", "both"),
        )
    found = closeness_witness(exact, approx, grid)
    if mode in ("real", "identity"):
        assert found is None


def spy_scatter(monkeypatch):
    """Record the pool size of every layer the scatter reducer serves;
    returns the list it appends to."""
    pools, scatter = [], exact_module._scatter_min_per_key

    def spy(key, lmax, best, ranks):
        pools.append(len(key))
        return scatter(key, lmax, best, ranks)

    monkeypatch.setattr(exact_module, "_scatter_min_per_key", spy)
    return pools


@settings(max_examples=200, deadline=None)
@given(
    jobs=closeness_jobs(("small", "ties", "equal_p", "even_p", "big_q", "huge_p")),
    eps=EPSILONS,
    mode=st.sampled_from(["real", "subsampled", "shifted", "both"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_layers_equal_sorted_layers(jobs, eps, mode, seed):
    inst = normalize(jobs)
    ranked = sorted_layers(inst)
    with pytest.MonkeyPatch.context() as patch:
        table_runs = spy_exact(patch, "_table_folds")
        streamed = list(exact_layers(inst))
    if table_cells(inst) <= DEFAULT_STATE_BUDGET:
        # the table, whichever route solve_exact took
        table = list(map(exact_module._reached, exact_module._table_folds(inst)))
        assert _table_sizes(inst, DEFAULT_STATE_BUDGET) in (None, [len(layer) for layer in ranked])
    else:
        # loads near 2^59: the table would not fit, the sorted engine serves
        table = streamed
        assert table_runs == []
    assert solve_exact(inst).layer_sizes == tuple(len(layer) for layer in ranked)
    for layers in (table, streamed):
        for layer, reference in zip(layers, ranked, strict=True):
            assert layer.i == reference.i
            assert np.array_equal(layer.lmax, reference.lmax)
            assert np.array_equal(layer.cmax, reference.cmax)
    # the drift check sees the same exact layers either way
    grid = grid_params(inst, eps)
    approx = perturbed_layers(
        trimmed_layers(inst, eps),
        grid,
        np.random.default_rng(seed),
        mode in ("subsampled", "both"),
        mode in ("shifted", "both"),
    )
    found = find_closeness_violation(ranked, approx, grid)
    assert find_closeness_violation(table, approx, grid) == found
    assert find_closeness_violation(exact_layers(inst), approx, grid) == found
    # the stream verify reads: the table's raw folds on the dense route
    exact_stream = exact_module._exact_stream(inst, DEFAULT_STATE_BUDGET)
    assert find_closeness_violation(exact_stream, approx, grid) == found
    if table_cells(inst) <= DEFAULT_STATE_BUDGET:
        folds = exact_module._table_folds(inst)
        assert find_closeness_violation(folds, approx, grid) == found
    if mode == "real":
        assert found is None


@pytest.mark.parametrize(
    "edge, jobs, eps",
    [
        ("int64-cells", [(3, 2**40), (5, 2**31), (4, 7), (6, 1)], Fraction(1, 2)),
        ("unreached-cells", [(4, 9), (8, 3), (2, 30), (6, 12), (10, 1)], Fraction(3, 10)),
        ("window-0", [(7, 3), (2, 8), (9, 9), (4, 1), (5, 6)], Fraction(1, 40)),
    ],
    ids=["int64-cells", "unreached-cells", "window-0"],
)
def test_fold_check_equals_layer_check(edge, jobs, eps):
    inst = normalize(jobs)
    grid = grid_params(inst, eps)
    ranked = sorted_layers(inst)
    # the fold stream reuses one buffer: copy each fold to keep it
    folds = [_Fold(f.i, f.lmax.copy(), f.cmax) for f in exact_module._table_folds(inst)]
    dtype = folds[0].lmax.dtype
    if edge == "int64-cells":
        assert dtype == np.int64
    elif edge == "unreached-cells":
        # every load is even, so every odd makespan's cell is unreached
        unreached = sum(int((fold.lmax == np.iinfo(dtype).max).sum()) for fold in folds)
        assert unreached >= sum((len(fold) - 1) // 2 for fold in folds) > 0
    else:
        # the window floor((i-1) * delta1) is 0 in every layer
        assert (inst.n - 1) * grid.delta1 < 1
    for seed in range(20):
        for mode in ("real", "subsampled", "shifted", "both"):
            approx = perturbed_layers(
                trimmed_layers(inst, eps),
                grid,
                np.random.default_rng(seed),
                mode in ("subsampled", "both"),
                mode in ("shifted", "both"),
            )
            found = closeness_witness(ranked, approx, grid)
            assert find_closeness_violation(folds, approx, grid) == (
                None if found is None else ClosenessViolation(*found)
            )
            if mode == "real":
                assert found is None


@pytest.mark.parametrize(
    "i, delta1",
    [(2, Fraction(5)), (4, Fraction(7, 3)), (3, Fraction(1, 3))],
    ids=["w=5", "w=7", "w=0"],
)
def test_closeness_step_edges(i, delta1):
    # one trimmed state (L#, C#) = (100, 100); window w = floor((i-1) * delta1)
    w = (i - 1) * delta1.numerator // delta1.denominator
    grid = GridParams(delta1=delta1, delta2=delta1, cmax_bound=400, lmax_bound=400)

    def witness(states, trimmed_states=((100, 100),)):
        layer, trimmed = array_layer(i, states), [array_layer(i, list(trimmed_states))]
        found = closeness_witness([layer], trimmed, grid)
        # the same exact layer as a fold of int32 cells gives the same witness
        via_fold = find_closeness_violation([as_fold(layer)], trimmed, grid)
        assert via_fold == (None if found is None else ClosenessViolation(*found))
        return found

    def uncovered(lmax, cmax):
        found = witness([(lmax, cmax)])
        assert found in (None, (i, ParetoPoint(cmax, lmax)))
        return found is not None

    # an exact state exactly w from C# on either load side, or exactly w
    # below L#, is covered; one step further is not
    assert not uncovered(100, 100 - w) and uncovered(100, 100 - w - 1)
    assert not uncovered(100, 100 + w) and uncovered(100, 100 + w + 1)
    assert not uncovered(100 - w, 100) and uncovered(100 - w - 1, 100)
    # in a layer, the first state past an edge is the one reported
    states = [(100, 100 - w - 1), (100, 100 - w), (100 - w - 1, 100), (100, 100 + w + 1)]
    assert witness(states) == (i, ParetoPoint(100 - w - 1, 100))
    assert witness(states[1:]) == (i, ParetoPoint(100, 100 - w - 1))
    # trimmed loads 2w + 1 apart both put a step at 100 + w + 1, and only
    # the upper state covers loads from there: the first uncovered load
    # opens the step after the repeated point
    pair, edge = ((100, 100), (110, 100 + 2 * w + 1)), 100 + w + 1
    assert witness([(100, 100), (109 - w, edge)], pair) == (i, ParetoPoint(edge, 109 - w))
    assert witness([(100, 100), (110 - w, edge)], pair) is None


@st.composite
def trim_pools(draw):
    """A grid from `closeness_jobs` and `EPSILONS`, and a pool of (lmax,
    cmax) children inside its bounds: a few values, each repeated or
    moved by up to three box widths, so boxes hold many ties."""
    grid = grid_params(normalize(draw(closeness_jobs())), draw(EPSILONS))
    widths = (max(1, int(grid.delta2)), max(1, int(grid.delta1)))
    bounds = (grid.lmax_bound, grid.cmax_bound)
    point = st.tuples(*(st.integers(0, b) for b in bounds))
    centres = draw(st.lists(point, min_size=1, max_size=6))

    def child(centre):
        return tuple(
            min(max(v + draw(st.integers(-3 * w, 3 * w)), 0), b)
            for v, w, b in zip(centre, widths, bounds)
        )

    picks = draw(
        st.lists(st.tuples(st.sampled_from(centres), st.booleans()), min_size=1, max_size=60)
    )
    return grid, [child(centre) if moved else centre for centre, moved in picks]


@settings(max_examples=300, deadline=None)
@given(case=trim_pools())
def test_trim_reducer_matches_reference(case):
    grid, pairs = case
    assert trim_winners(pairs, grid) == [reference_trim_winners(pairs, grid)] * 2


@st.composite
def tied_pools(draw):
    """Int64 box keys and lateness values for the scatter reducer, drawn
    from a few values each so (box, lmax) pairs repeat, with the largest
    lateness that packs into int64 for the pool among the values."""
    pool = draw(st.integers(1, 80))
    # the solver scatters when boxes <= 2 * pool, and pools never pass
    # two children per box
    boxes = draw(st.integers((pool + 1) // 2, 2 * pool))
    top = draw(st.sampled_from([3, _INT64_MAX // pool - 1]))
    keys = draw(st.lists(st.integers(0, boxes - 1), min_size=1, max_size=4))
    values = draw(st.lists(st.integers(max(0, top - 3), top), min_size=1, max_size=3))
    key = draw(st.lists(st.sampled_from(keys), min_size=pool, max_size=pool))
    lmax = draw(st.lists(st.sampled_from(values), min_size=pool, max_size=pool))
    return boxes, np.array(key, dtype=np.int64), np.array(lmax, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(case=tied_pools())
def test_scatter_reducer_matches_sort_reducer(case):
    boxes, key, lmax = case
    best = np.full(boxes, _INT64_MAX, dtype=np.int64)
    ranks = np.arange(2 * boxes, dtype=np.int64)
    won = _scatter_min_per_key(key, lmax, best, ranks)
    assert won.tolist() == _min_lmax_per_key(key, lmax).tolist()
    assert (best == _INT64_MAX).all()  # scratch left ready for the next layer


def test_scatter_packing_bound_near_magnitude_cap(monkeypatch):
    """The scatter packs ``L * pool + index`` into int64, so a solve may
    take it only if ``(P + q_max + 1) * pool`` fits at every pool a layer
    can reach, up to twice the box count.  Near the 2^60 cap it does not:
    the solve must then pick the sort's states, even with the pool
    thresholds forced open as in the golden record's scatter mode."""
    rng = np.random.default_rng(5)
    p = rng.integers(2**55, 2**56, size=12).tolist()
    p[-1] -= sum(p) % 24  # P a multiple of 2n: delta1 = P / 24 at eps 1
    q = rng.integers(0, 2**50, size=12).tolist()
    huge = normalize(list(zip(p, q)))
    assert huge.total_p + huge.q_max <= MAX_MAGNITUDE
    assert grid_params(huge, Fraction(1)).delta1.denominator == 1  # int64 keys
    # a small instance with delta1 > 1, on which the forced scatter runs
    small = make_instances(53, 1, (30, 30), (1, 100), (1, 100))[0]
    assert grid_params(small, Fraction(1)).delta1 > 1

    monkeypatch.setattr(exact_module, "_SCATTER_MIN_POOL", 1)
    monkeypatch.setattr(exact_module, "_SCATTER_BOXES_PER_CHILD", 0)
    sort_only = [solve_fptas(inst, Fraction(1)) for inst in (huge, small)]
    monkeypatch.setattr(exact_module, "_SCATTER_BOXES_PER_CHILD", 10**9)
    pools = spy_scatter(monkeypatch)
    for inst, want in zip((huge, small), sort_only):
        pools.clear()
        got = solve_fptas(inst, Fraction(1))
        assert got.front == want.front
        assert got.schedules == want.schedules
        assert got.layer_sizes == want.layer_sizes
    # the forced scatter served every layer of the small solve
    assert len(pools) == small.n - 1


def test_coverage_and_closeness_on_random_instances():
    instances = make_instances(29, 25, (2, 12)) + make_instances(41, 6, (20, 40), (1, 1000))
    for inst in instances:
        exact = solve_exact(inst)
        layers = list(exact_layers(inst))
        for eps in (Fraction(3, 10), Fraction(9, 10), Fraction(2)):
            approx = solve_fptas(inst, eps)
            assert coverage_check(exact.front, approx.front, eps)
            grid = grid_params(inst, eps)
            assert find_closeness_violation(layers, trimmed_layers(inst, eps), grid) is None


def test_layer_sizes_respect_box_count_bound():
    for inst in make_instances(31, 10, (5, 25), (1, 100), (1, 100)):
        for eps in (Fraction(3, 10), Fraction(9, 10)):
            grid = grid_params(inst, eps)
            bound = box_index(grid.cmax_bound, grid.delta1) + 1
            result = solve_fptas(inst, eps)
            assert max(result.layer_sizes) <= bound


def test_widest_trimmed_layer_follows_box_count_not_total_load():
    # Strongly polynomial: with delta1 = eps * P / (2n) there are
    # floor(2n / eps) + 1 load boxes whatever P is, and the widest trimmed
    # layer follows that count, not P.
    def widest(p_hi, eps):
        inst = make_instances(404, 1, (200, 200), (1, p_hi), (1, 1000))[0]
        grid = grid_params(inst, eps)
        boxes = box_index(grid.cmax_bound, grid.delta1) + 1
        assert boxes == 2 * inst.n // eps + 1
        size = max(solve_fptas(inst, eps).layer_sizes)
        assert boxes / 4 <= size <= boxes
        return inst.total_p, size

    # P from about 1e4 to 1e7 at eps 3/10: at most 2% apart
    totals, sizes = zip(*(widest(p_hi, Fraction(3, 10)) for p_hi in (100, 10**3, 10**4, 10**5)))
    assert totals[-1] > 500 * totals[0]
    assert max(sizes) - min(sizes) <= min(sizes) / 50
    for eps in (Fraction(9, 10), Fraction(3, 10), Fraction(1, 10)):
        widest(1000, eps)


def test_python_fallback_reducer_matches_vectorized(monkeypatch):
    instances = make_instances(37, 10, (2, 14))
    eps = Fraction(3, 10)
    vectorized = [solve_fptas(inst, eps) for inst in instances]
    monkeypatch.setattr(exact_module, "_INT64_MAX", 0)  # force object box keys
    for inst, vec in zip(instances, vectorized):
        fal = solve_fptas(inst, eps)
        assert fal.front.points == vec.front.points
        assert fal.layer_sizes == vec.layer_sizes
        assert fal.schedules == vec.schedules


@pytest.mark.parametrize("fallback", [False, True], ids=["int64", "python-int"])
def test_streams_agree_with_lean_solves(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(exact_module, "_INT64_MAX", 0)  # force object box keys
    runs = [(solve_exact, exact_layers)] + [
        (partial(solve_fptas, eps=eps), partial(trimmed_layers, eps=eps))
        for eps in (Fraction(3, 10), Fraction(9, 10), Fraction(2))
    ]
    instances = make_instances(43, 8, (1, 14)) + make_instances(47, 3, (20, 30), (1, 1000))
    # sparse loads: the exact solve takes the sorted engine
    instances.append(normalize([(1, 100)] * 19 + [(1_000_000, 0)]))
    table_runs = spy_exact(monkeypatch, "_table_folds")
    table_route = set()
    for inst in instances:
        for solve, stream in runs:
            lean = solve(inst)
            table_calls = len(table_runs)
            layers = list(stream(inst))
            if stream is exact_layers:
                table_route.add(len(table_runs) > table_calls)
            for i, layer in enumerate(layers, 1):
                assert layer.i == i
                # one layer shape on every route
                assert [field.name for field in fields(layer)] == ["i", "lmax", "cmax"]
            # the lean solve's layer sizes, and its front from the last layer
            assert tuple(map(len, layers)) == lean.layer_sizes
            last = map(ParetoPoint, layers[-1].cmax.tolist(), layers[-1].lmax.tolist())
            assert pareto_filter(last) == lean.front
            if inst.n == 1:
                continue
            # one state below the solve's peak, the stream yields the same
            # layers up to the one the lean solve stops at, then its error
            budget = sorted_peak(lean.layer_sizes) - 1
            with pytest.raises(StateBudgetError) as lean_error:
                solve(inst, budget=budget)
            streamed = []
            with pytest.raises(StateBudgetError) as stream_error:
                for layer in stream(inst, budget=budget):
                    streamed.append(layer)
            assert str(stream_error.value) == str(lean_error.value)
            assert f" layer {len(streamed) + 1} needs " in str(lean_error.value)
            for layer, kept in zip(streamed, layers):
                assert layer.i == kept.i
                assert np.array_equal(layer.lmax, kept.lmax)
                assert np.array_equal(layer.cmax, kept.cmax)
    # both exact routes: the dense table and the sorted engine
    assert table_route == {True, False}


def test_huge_epsilon_denominator_uses_exact_arithmetic():
    inst = normalize(WORKED)
    # delta1 = 3 (10^19 + 1) / (2 * 10^19) is just above 3/2, and its
    # numerator is beyond int64, so the box keys are Python integers
    eps = Fraction(10**19 + 1, 10**19)
    grid = grid_params(inst, eps)
    assert grid.delta1 > 1 and grid.delta1.numerator > 2**63
    # loads 3, 6 and 9 sit just below the box edges 2, 4 and 6 of delta1 = 3/2
    assert [box_index(c, grid.delta1) for c in (3, 6, 9)] == [1, 3, 5]
    assert [box_index(c, Fraction(3, 2)) for c in (3, 6, 9)] == [2, 4, 6]
    # so loads 5 and 6 share box 3 and the trimmed front loses (5, 9),
    # which float box keys (6 / 1.5 = 4.0) would keep as at eps = 1
    approx = solve_fptas(inst, eps)
    assert list(trimmed_layers(inst, eps))[2].cmax.tolist() == [6, 7, 9]
    assert approx.front.points == (ParetoPoint(6, 7),)
    assert solve_fptas(inst, Fraction(1)).front.points == (ParetoPoint(5, 9), ParetoPoint(6, 7))
    assert coverage_check(solve_exact(inst).front, approx.front, eps)


GOLDEN = Path(__file__).parent / "data" / "fptas_golden.json"


@pytest.mark.parametrize("mode", ["int64", "python-int", "int64-scatter"])
def test_solve_fptas_matches_golden_record(monkeypatch, mode):
    """Trimmed fronts, layer sizes and witness flags recorded with one
    state per load box; the trimmed solver must reproduce them exactly on
    both box-key dtypes, and with either reducer on int64 keys.  No
    golden pool is large enough to scatter by default, so ``int64``
    sorts every layer and ``int64-scatter`` scatters every layer of
    boxes wider than 1."""
    if mode == "python-int":
        monkeypatch.setattr(exact_module, "_INT64_MAX", 0)
    if mode == "int64-scatter":
        monkeypatch.setattr(exact_module, "_SCATTER_MIN_POOL", 1)
        monkeypatch.setattr(exact_module, "_SCATTER_BOXES_PER_CHILD", 10**9)
    pools = spy_scatter(monkeypatch)
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert len(cases) == 20
    wide_layers = 0
    for case in cases:
        inst = normalize([tuple(job) for job in case["jobs"]])
        result = solve_fptas(inst, Fraction(case["eps"]))
        assert [list(pt) for pt in result.front] == case["front"]
        assert list(result.layer_sizes) == case["layer_sizes"]
        assert ["".join(map(str, s)) for s in result.schedules] == case["flags"]
        if grid_params(inst, Fraction(case["eps"])).delta1 > 1:
            wide_layers += inst.n - 1
    # one scatter per layer i >= 2 of boxes wider than 1, and none otherwise
    assert len(pools) == (wide_layers if mode == "int64-scatter" else 0)
