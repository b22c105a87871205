import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipareto import (
    DEFAULT_STATE_BUDGET,
    GenSpec,
    Layer,
    ParetoPoint,
    StateBudgetError,
    evaluate_schedule,
    exact_layers,
    generate_instance,
    normalize,
    solve_exact,
)
from bipareto import exact as exact_module
from bipareto.exact import _expand, _min_lmax_per_key
from bipareto.oracle import enumerate_front
from conftest import (
    make_instances,
    sorted_layers,
    sorted_loop,
    sorted_peak,
    sorted_solve,
    spy_exact,
    successor_pool,
    table_cells,
)

WORKED = [(2, 5), (3, 4), (4, 1)]


def array_pairs(layer):
    return list(zip(layer.lmax.tolist(), layer.cmax.tolist()))


def test_initial_layer():
    first = sorted_layers(normalize(WORKED))[0]
    origin = sorted_loop(normalize(WORKED))[0][2]
    assert (first.i, array_pairs(first), origin.tolist()) == (1, [(7, 2)], [-1])
    assert array_pairs(sorted_layers(normalize([(1, 0)]))[0]) == [(1, 1)]
    # the first job in sorted order (largest q), not in input order
    first = sorted_layers(normalize([(1, 0), (10, 10)]))[0]
    assert array_pairs(first) == [(20, 10)]


def expand_pairs(pairs, p, q, prefix_total):
    lmax, cmax = _expand(*successor_pool(pairs), p, q, prefix_total)
    return list(zip(lmax.tolist(), cmax.tolist()))


def test_successors_worked_transitions():
    # child 2j is parent j's same-machine child, 2j+1 its other-machine child
    # other machine's load 3 exceeds 2 and becomes the lead
    assert expand_pairs([(7, 2)], 3, 4, 5) == [(9, 5), (7, 3)]
    assert expand_pairs([(7, 3)], 4, 1, 9) == [(8, 7), (7, 6)]
    # other machine's load 4 stays below 5: lead load unchanged
    assert expand_pairs([(9, 5)], 4, 1, 9) == [(10, 9), (9, 5)]
    # a two-state layer interleaves its parents' children
    assert expand_pairs([(7, 3), (9, 5)], 4, 1, 9) == [(8, 7), (7, 6), (10, 9), (9, 5)]


def prune_winners(pairs):
    """Pool indices the exact solver keeps (load boxes of width 1) from a
    pool of (lmax, cmax) children."""
    lmax, cmax = successor_pool(pairs)
    return _min_lmax_per_key(cmax, lmax).tolist()


def test_prune_keeps_minimal_lateness_per_load():
    assert prune_winners([(9, 5), (12, 5)]) == [0]
    assert prune_winners([(12, 5), (9, 5)]) == [1]

    # layer 3 of the worked instance: kept in ascending load order, not
    # pool order; the choices (index & 1) are other, other, same, same
    layer3 = [(10, 9), (9, 5), (8, 7), (7, 6)]
    assert prune_winners(layer3) == [1, 3, 2, 0]


def test_prune_tie_keeps_earliest_generated():
    # the paper's flag would split these two; the load alone merges them
    assert prune_winners([(9, 5), (9, 5)]) == [0]
    # the earliest wins even when it is an other-machine child (index 1)
    # and the later one a same-machine child (index 2)
    tied = [(12, 8), (9, 5), (9, 5), (4, 3)]
    assert prune_winners(tied) == [3, 1, 0]


def test_solve_exact_worked_instance():
    inst = normalize(WORKED)
    result, layers = sorted_solve(inst), sorted_layers(inst)
    assert result.front.points == (ParetoPoint(5, 9), ParetoPoint(6, 7))
    assert result.layer_sizes == (1, 2, 4)
    assert [layer.i for layer in layers] == [1, 2, 3]
    assert array_pairs(layers[1]) == [(7, 3), (9, 5)]
    assert array_pairs(layers[2]) == [(9, 5), (7, 6), (8, 7), (10, 9)]
    # parents (origin >> 1) and choices (origin & 1) of the kept states
    assert sorted_loop(inst)[2][2].tolist() == [3, 1, 0, 2]
    assert result.schedules == ((1, 1, 0), (1, 0, 1))
    for sched, point in zip(result.schedules, result.front):
        assert evaluate_schedule(inst, sched) == point


def test_solve_exact_degenerate_instances():
    assert solve_exact(normalize([(7, 3)])).front.points == (ParetoPoint(7, 10),)
    # identical jobs: splitting dominates stacking
    assert solve_exact(normalize([(4, 2), (4, 2)])).front.points == (ParetoPoint(4, 6),)


def test_reconstruct_worked_instance():
    inst = normalize(WORKED)
    result = solve_exact(inst)
    assert result.schedules[1] == (1, 0, 1)  # point (6, 7)

    two = normalize(WORKED[:2])
    res2 = solve_exact(two)
    assert res2.front.points == (ParetoPoint(3, 7),)
    assert res2.schedules[0] == (1, 0)

    single = solve_exact(normalize([(7, 3)]))
    assert single.schedules[0] == (1,)


def test_budget_guard():
    inst = make_instances(5, 1, (30, 30))[0]
    with pytest.raises(StateBudgetError, match="state budget exceeded"):
        solve_exact(inst, budget=10)
    # layers 1 and 2 retain 1 + 2 states; layer 3 would add up to 4 more
    with pytest.raises(StateBudgetError) as info:
        solve_exact(normalize(WORKED), budget=6)
    assert str(info.value) == (
        "state budget exceeded: layer 3 needs up to 7 live states (budget 6)"
    )
    assert solve_exact(normalize(WORKED), budget=7).layer_sizes == (1, 2, 4)
    with pytest.raises(ValueError):
        solve_exact(inst, budget=0)


def scalar_layer_records(inst):
    """The recurrence on plain integers, as the reference for the engine.

    Per layer: (lmax, cmax, choice, parent position) of every kept state.
    Parents are expanded in layer order, the same-machine child (choice 0)
    before the other-machine child (choice 1); per load the first child
    with strictly smallest lmax wins; loads are kept in ascending order.
    """
    first = inst.jobs[0]
    layer = [(first.p + first.q, first.p, None, None)]
    records = [layer]
    for job, total in zip(inst.jobs[1:], inst.prefix[2:]):
        best = {}
        for pos, (l, c, _, _) in enumerate(layer):
            same = (max(l, c + job.p + job.q), c + job.p)
            other = (max(l, total - c + job.q), max(c, total - c))
            for choice, (child_l, child_c) in enumerate((same, other)):
                if child_c not in best or child_l < best[child_c][0]:
                    best[child_c] = (child_l, child_c, choice, pos)
        layer = [best[c] for c in sorted(best)]
        records.append(layer)
    return records


def array_layer_records(loop):
    """The same records read off the engine's arrays: parent origin >> 1,
    choice origin & 1."""
    records = []
    for lmax, cmax, origin in loop:
        records.append(
            [
                (l, c, None if o < 0 else o & 1, None if o < 0 else o >> 1)
                for l, c, o in zip(lmax.tolist(), cmax.tolist(), origin.tolist())
            ]
        )
    return records


def assert_matches_scalar_reference(inst):
    layers, loop = sorted_layers(inst), sorted_loop(inst)
    assert [layer.i for layer in layers] == list(range(1, inst.n + 1))
    for layer, (lmax, cmax, origin) in zip(layers, loop, strict=True):
        assert layer.lmax.dtype == layer.cmax.dtype == origin.dtype == np.int64
        # the stream yields the loop's states
        assert np.array_equal(layer.lmax, lmax) and np.array_equal(layer.cmax, cmax)
    # same values, same order and the same tie-break winners (parent, choice)
    assert scalar_layer_records(inst) == array_layer_records(loop)


def test_vectorized_engine_matches_scalar_reference():
    for inst in make_instances(11, 40, (2, 12)):
        assert_matches_scalar_reference(inst)
    # equal loads everywhere: maximal (load, lateness) ties
    for inst in make_instances(11, 10, (2, 12), (3, 3), (1, 4)):
        assert_matches_scalar_reference(inst)


def test_layer_invariants_on_random_instances():
    for inst in make_instances(13, 25, (2, 14)):
        layers, loop = sorted_layers(inst), sorted_loop(inst)
        assert loop[0][2].tolist() == [-1]
        for prev, layer, (_, _, origin) in zip([None] + layers, layers, loop):
            s_i = inst.prefix[layer.i]
            loads = layer.cmax.tolist()
            # one state per load, in strictly ascending load order
            assert all(a < b for a, b in zip(loads, loads[1:]))
            assert all(math.ceil(s_i / 2) <= c <= s_i for c in loads)
            if prev is not None:
                parents = (origin >> 1).tolist()
                assert all(0 <= j < len(prev) for j in parents)
                assert all(
                    l >= prev.lmax[j] for l, j in zip(layer.lmax.tolist(), parents)
                )


def brute_force_layer(inst, i):
    """Smallest lateness per load of the most-loaded machine over every
    assignment of the first i jobs (job 1 on flag 1), in ascending load."""
    prefix = normalize([(job.p, job.q) for job in inst.jobs[:i]])
    best = {}
    for rest in product((0, 1), repeat=i - 1):
        c, l = evaluate_schedule(prefix, (1,) + rest)
        best[c] = min(l, best.get(c, l))
    return sorted(best.items())


def test_layers_equal_brute_force_over_prefixes():
    instances = (
        make_instances(11, 40, (2, 12))
        + make_instances(11, 10, (2, 12), (3, 3), (1, 4))
        + make_instances(13, 25, (2, 14))
    )
    checked = 0
    for inst in instances:
        if inst.n > 10:
            continue
        for layer in exact_layers(inst):
            assert list(zip(layer.cmax.tolist(), layer.lmax.tolist())) == brute_force_layer(
                inst, layer.i
            )
            checked += 1
    assert checked > 300


def test_front_matches_oracle_on_random_instances():
    for inst in make_instances(17, 60, (2, 10)):
        assert solve_exact(inst).front.points == enumerate_front(inst).points


def test_schedules_realize_front_points():
    for inst in make_instances(19, 30, (2, 16)):
        result = solve_exact(inst)
        assert len(result.schedules) == len(result.front)
        for sched, point in zip(result.schedules, result.front):
            assert evaluate_schedule(inst, sched) == point


def assert_exact_front_is_oracle_front(jobs):
    inst = normalize(jobs)
    front = enumerate_front(inst).points
    # the sorted engine's layers and parents, and whatever route the
    # solve takes
    assert_matches_scalar_reference(inst)
    for result in (sorted_solve(inst), solve_exact(inst)):
        assert result.front.points == front
        assert len(result.schedules) == len(result.front)
        for sched, point in zip(result.schedules, result.front):
            assert evaluate_schedule(inst, sched) == point


@st.composite
def edge_instances(draw, kind):
    """Job lists at the edges of the load-keyed recurrence."""
    if kind == "single":
        return [(draw(st.integers(1, 2**59)), draw(st.integers(0, 2**59)))]
    if kind == "huge_p":
        # one or two loads near 2^59; the total stays under MAX_MAGNITUDE
        n = draw(st.integers(1, 8))
        big = draw(st.integers(1, min(2, n)))
        ps = [draw(st.integers(2**59 - 2**20, 2**59 - 2**19)) for _ in range(big)]
        ps += [draw(st.integers(1, 2**16)) for _ in range(n - big)]
        qs = [draw(st.integers(0, 2**16)) for _ in range(n)]
        return list(zip(draw(st.permutations(ps)), qs))
    n = draw(st.integers(1, 10))
    if kind == "equal_q":
        q = draw(st.integers(0, 50))
        return [(draw(st.integers(1, 30)), q) for _ in range(n)]
    p = draw(st.integers(1, 30))  # equal p: every layer collides on load
    return [(p, draw(st.integers(0, 50))) for _ in range(n)]


@pytest.mark.parametrize("kind", ["single", "equal_q", "equal_p", "huge_p"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_front_equals_enumeration_at_edges(kind, data):
    assert_exact_front_is_oracle_front(data.draw(edge_instances(kind)))


def assert_witnesses_realize_front(inst, result):
    for sched, point in zip(result.schedules, result.front, strict=True):
        assert evaluate_schedule(inst, sched) == point


def assert_paths_agree(inst, dense, ranked):
    """The dense table and the sorted engine give one front, one layer
    size per layer and witnesses that realize their points."""
    assert dense.front == ranked.front
    assert dense.layer_sizes == ranked.layer_sizes
    assert_witnesses_realize_front(inst, dense)
    assert_witnesses_realize_front(inst, ranked)


@st.composite
def budgeted_instances(draw):
    """Mostly dense instances of small loads, each with a budget around
    the sorted engine's peak: the peak itself, one state below it, or
    anywhere from half to twice it."""
    jobs = draw(
        st.lists(st.tuples(st.integers(1, 8), st.integers(0, 60)), min_size=1, max_size=200)
    )
    inst = normalize(jobs)
    peak = sorted_peak(sorted_solve(inst).layer_sizes)
    near = st.sampled_from([peak, peak - 1])
    return inst, draw(near | st.integers(peak // 2, 2 * peak))


@settings(max_examples=40, deadline=None)
@given(case=budgeted_instances())
def test_dense_and_sorted_paths_agree(case):
    # under any budget, solve_exact returns or raises what the sorted
    # engine does, whichever route it takes
    inst, budget = case
    try:
        ranked = sorted_solve(inst, budget)
    except (StateBudgetError, ValueError) as error:
        with pytest.raises(type(error)) as info:
            solve_exact(inst, budget=budget)
        assert str(info.value) == str(error)
        return
    assert_paths_agree(inst, solve_exact(inst, budget=budget), ranked)


def test_dense_path_is_taken_on_dense_instances(monkeypatch):
    instances = [normalize(WORKED)] + make_instances(23, 12, (20, 200), (1, 8), (1, 60))
    ranked = [sorted_solve(inst) for inst in instances]

    def sorted_engine(*args, **kwargs):
        raise AssertionError("solve_exact took the sorted path")

    monkeypatch.setattr(exact_module, "_solve_layered", sorted_engine)
    for inst, reference in zip(instances, ranked):
        assert_paths_agree(inst, solve_exact(inst), reference)
    # Ties stay on flag 0 in the table, and the fold picks the cell whose
    # flag-1 load is the makespan: the sorted engine's witness is (1, 0, 1).
    assert solve_exact(normalize([(1, 0)] * 3)).schedules == ((1, 1, 0),)


@pytest.mark.parametrize(
    "jobs", [[(10**12, 10)], [(10**12, 10), (1, 0)], [(2**59, 7), (3, 2), (2, 0)]]
)
def test_dense_path_with_a_first_job_over_half_the_load(monkeypatch, jobs):
    # The table spans only [p_1, P]; its fold onto max(a, P - a) must too,
    # not the whole range from P / 2.
    inst = normalize(jobs)
    front = enumerate_front(inst)

    def sorted_engine(*args, **kwargs):
        raise AssertionError("solve_exact took the sorted path")

    monkeypatch.setattr(exact_module, "_solve_layered", sorted_engine)
    result = solve_exact(inst)
    assert result.front == front
    assert_witnesses_realize_front(inst, result)


def test_dense_path_runs_while_the_sorted_engine_fits_the_budget(monkeypatch):
    inst = make_instances(29, 1, (60, 60), (1, 6))[0]
    reference = sorted_solve(inst)
    sizes = reference.layer_sizes
    # the sorted engine's largest check: retained states plus the next pool
    needs = [sum(sizes[:i]) + 2 * sizes[i - 1] for i in range(1, inst.n)]
    need = max(needs)
    layer = needs.index(need) + 2
    # the budget is in the sorted engine's states, which the cells pass
    assert table_cells(inst) > need
    ranked, solve_layered = [], exact_module._solve_layered

    def sorted_engine(*args):
        ranked.append(args)
        return solve_layered(*args)

    monkeypatch.setattr(exact_module, "_solve_layered", sorted_engine)
    result = solve_exact(inst, budget=need)
    assert ranked == []
    assert (result.front, result.layer_sizes) == (reference.front, sizes)
    assert_witnesses_realize_front(inst, result)
    # one state below, the sorted engine runs and raises
    with pytest.raises(StateBudgetError) as info:
        solve_exact(inst, budget=need - 1)
    assert len(ranked) == 1
    assert str(info.value) == (
        f"state budget exceeded: layer {layer} needs up to {need} live states "
        f"(budget {need - 1})"
    )


def test_sparse_instance_under_the_cell_count_takes_the_sorted_path(monkeypatch):
    # sparse loads: 1.0M cells fit the budget but are far over four
    # times the 129 states the sorted engine keeps
    inst = normalize([(1, 100)] * 19 + [(1_000_000, 0)])

    def dense_table(*args, **kwargs):
        raise AssertionError("solve_exact took the dense path")

    monkeypatch.setattr(exact_module, "_solve_dense", dense_table)
    result = solve_exact(inst)
    assert result.front == enumerate_front(inst)
    assert_witnesses_realize_front(inst, result)
    assert exact_module._table_sizes(inst, DEFAULT_STATE_BUDGET) is None
    assert sum(result.layer_sizes) == 129


@pytest.mark.parametrize(
    "inst, budget",
    [
        # 1.5e8 cells, under four times the default budget, for 269 states
        (normalize([(1, 100)] * 29 + [(150_000_000, 0)]), DEFAULT_STATE_BUDGET),
        # P 110,919,620: 6.3e8 cells for 4,095 states, the most 12 jobs allow
        (generate_instance(GenSpec((12, 12), (1, 2**24), (1, 2**24), 5, 1), 0), 10**9),
        # loads sharing the factor 2^31: 960 states, counted in that unit
        (normalize([(2**31, 5)] * 60), 10**13),
    ],
    ids=["one-long-job", "wide-loads", "common-factor"],
)
def test_route_count_is_bounded_by_states_not_cells(inst, budget):
    # each layer keeps at most twice the states of the one before, so the
    # sorted route is settled before a bitset as wide as the loads is built
    tracemalloc.start()
    try:
        result = solve_exact(inst, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"solve_exact peaked at {peak / 2**20:.1f} MB"
    reference = sorted_solve(inst)
    assert (result.front, result.layer_sizes) == (reference.front, reference.layer_sizes)
    assert_witnesses_realize_front(inst, result)
    if inst.n <= 12:  # small enough to enumerate
        assert result.front == enumerate_front(inst)


@pytest.mark.parametrize("factor", [2, 3, 2**20])
def test_layer_sizes_ignore_a_common_factor_of_the_loads(factor):
    # the route count works in units of the loads' common factor, so
    # scaling every load keeps the states, whichever route each solve takes
    for inst in make_instances(27, 4, (20, 40)):
        scaled = normalize([(job.p * factor, job.q) for job in inst.jobs])
        assert solve_exact(scaled, budget=10**13).layer_sizes == solve_exact(inst).layer_sizes


DENSE_P = [5, 3, 8, 2, 7, 1, 4, 6, 2, 3]


@pytest.mark.parametrize(
    "jobs, dtype",
    [
        # equal q: the all-on-flag-1 cell holds exactly P + q_max, one
        # below the int32 sentinel, and then equal to it
        ([(p, 2**31 - 2 - sum(DENSE_P)) for p in DENSE_P], np.int32),
        ([(p, 2**31 - 1 - sum(DENSE_P)) for p in DENSE_P], np.int64),
        ([(p, 2**40 if p % 2 else p) for p in DENSE_P], np.int64),
    ],
    ids=["int32-max-minus-1", "int32-max", "q-2^40"],
)
def test_dense_cell_dtype_boundary(monkeypatch, jobs, dtype):
    inst = normalize(jobs)
    reference, ranked = sorted_solve(inst), sorted_layers(inst)
    fold, tables = exact_module._fold, []

    def spy(table, *args):
        tables.append(table.dtype)
        return fold(table, *args)

    def sorted_engine(*args, **kwargs):
        raise AssertionError("solve_exact took the sorted path")

    monkeypatch.setattr(exact_module, "_fold", spy)
    monkeypatch.setattr(exact_module, "_layer_loop", sorted_engine)
    lean, layers = solve_exact(inst), list(exact_layers(inst))
    assert set(tables) == {np.dtype(dtype)}
    assert_paths_agree(inst, lean, reference)
    for table_layer, layer in zip(layers, ranked, strict=True):
        assert table_layer.i == layer.i
        assert table_layer.lmax.dtype == table_layer.cmax.dtype == np.int64
        assert table_layer.lmax.tolist() == layer.lmax.tolist()
        assert table_layer.cmax.tolist() == layer.cmax.tolist()
    if len({job.q for job in inst.jobs}) == 1:
        assert max(layers[-1].lmax.tolist()) == inst.total_p + inst.q_max


@pytest.mark.parametrize(
    "jobs, cells",
    [
        ([(p, 2 * p) for p in DENSE_P], np.int32),
        ([(p, 2**40 if p % 2 else p) for p in DENSE_P], np.int64),
        # sparse loads: the sorted engine serves
        ([(1, 100)] * 19 + [(1_000_000, 0)], None),
    ],
    ids=["table-int32", "table-int64", "sorted"],
)
def test_exact_layers_leak_no_fold(monkeypatch, jobs, cells):
    inst = normalize(jobs)
    table_folds = spy_exact(monkeypatch, "_table_folds")
    layers = list(exact_layers(inst))
    assert table_folds == ([] if cells is None else [inst])
    if cells is not None:
        assert exact_module._first_table(inst)[0].dtype == np.dtype(cells)
    assert [layer.i for layer in layers] == list(range(1, inst.n + 1))
    for layer in layers:
        assert type(layer) is Layer
        assert layer.lmax.dtype == layer.cmax.dtype == np.int64
    # no view of the reused fold buffer, or of the table's ramp, escapes
    arrays = [array for layer in layers for array in (layer.lmax, layer.cmax)]
    for k, array in enumerate(arrays):
        assert not any(np.shares_memory(array, other) for other in arrays[k + 1 :])


def test_widest_exact_layer_follows_total_load(monkeypatch):
    # Pseudo-polynomial: an exact layer keeps one state per reachable
    # makespan, at most the floor(P/2) + 1 values ceil(P/2)..P, and on
    # these dense loads nearly all of them, so its width follows P.  All
    # four take the dense table, p 1:10000 (P 976,976) included.
    def sorted_engine(*args):
        raise AssertionError("solve_exact took the sorted path")

    monkeypatch.setattr(exact_module, "_solve_layered", sorted_engine)
    totals = []
    for p_hi in (20, 100, 1000, 10000):
        inst = make_instances(404, 1, (200, 200), (1, p_hi), (1, 1000))[0]
        widest = max(solve_exact(inst).layer_sizes)
        assert 0.9 * inst.total_p / 2 <= widest <= inst.total_p // 2 + 1
        totals.append(inst.total_p)
    assert totals[-1] > 400 * totals[0]
