import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipareto import (
    DpState,
    ParetoPoint,
    StateBudgetError,
    evaluate_schedule,
    initial_layer,
    normalize,
    prune,
    reconstruct,
    solve_exact,
    successors,
)
from bipareto.exact import CHOICE_OTHER, CHOICE_SAME
from bipareto.oracle import enumerate_front
from conftest import make_instances

WORKED = [(2, 5), (3, 4), (4, 1)]


def as_pairs(states):
    return [(s.lmax, s.cmax) for s in states]


def array_pairs(layer):
    return list(zip(layer.lmax.tolist(), layer.cmax.tolist()))


def test_initial_layer():
    assert as_pairs(initial_layer(normalize(WORKED))) == [(7, 2)]
    assert initial_layer(normalize([(1, 0)]))[0].point == ParetoPoint(1, 1)
    assert as_pairs(initial_layer(normalize([(10, 10), (1, 0)]))) == [(20, 10)]


def test_successors_worked_transitions():
    root = DpState(lmax=7, cmax=2)
    same, other = successors(root, 3, 4, 5)
    assert (same.lmax, same.cmax) == (9, 5)
    # other machine's load 3 exceeds 2 and becomes the lead
    assert (other.lmax, other.cmax) == (7, 3)
    assert same.choice == CHOICE_SAME and other.choice == CHOICE_OTHER
    assert same.parent is root and other.parent is root

    same, other = successors(DpState(lmax=7, cmax=3), 4, 1, 9)
    assert (same.lmax, same.cmax) == (8, 7)
    assert (other.lmax, other.cmax) == (7, 6)

    # other machine's load 4 stays below 5: lead load unchanged
    same, other = successors(DpState(lmax=9, cmax=5), 4, 1, 9)
    assert (same.lmax, same.cmax) == (10, 9)
    assert (other.lmax, other.cmax) == (9, 5)


def test_prune_keeps_minimal_lateness_per_load():
    root = DpState(lmax=7, cmax=2)
    a = DpState(lmax=9, cmax=5, parent=root, choice=0)
    b = DpState(lmax=12, cmax=5, parent=root, choice=1)
    assert prune([a, b]) == (a,)
    assert prune([b, a])[0] is a

    # the paper's flag would split these two; the load alone merges them
    c = DpState(lmax=9, cmax=5, parent=root, choice=1)
    assert prune([a, c])[0] is a

    layer3 = [
        DpState(lmax=10, cmax=9, parent=a, choice=0),
        DpState(lmax=9, cmax=5, parent=a, choice=1),
        DpState(lmax=8, cmax=7, parent=c, choice=0),
        DpState(lmax=7, cmax=6, parent=c, choice=1),
    ]
    pruned = prune(layer3)
    # kept in ascending load order, not input order
    assert as_pairs(pruned) == [(9, 5), (7, 6), (8, 7), (10, 9)]
    assert [s.choice for s in pruned] == [1, 1, 0, 0]


def test_prune_tie_keeps_earliest_generated():
    root = DpState(lmax=7, cmax=2)
    first = DpState(lmax=9, cmax=5, parent=root, choice=0)
    second = DpState(lmax=9, cmax=5, parent=root, choice=1)
    assert prune([first, second])[0] is first
    assert prune([second, first])[0] is second


def test_prune_rejects_empty():
    with pytest.raises(ValueError):
        prune([])


def test_solve_exact_worked_instance():
    inst = normalize(WORKED)
    result = solve_exact(inst, keep_layers=True)
    assert result.front.points == (ParetoPoint(5, 9), ParetoPoint(6, 7))
    assert result.layer_sizes == (1, 2, 4)
    assert [layer.i for layer in result.layers] == [1, 2, 3]
    assert array_pairs(result.layers[1]) == [(7, 3), (9, 5)]
    assert array_pairs(result.layers[2]) == [(9, 5), (7, 6), (8, 7), (10, 9)]
    # parents (origin >> 1) and choices (origin & 1) of the kept states
    assert result.layers[2].origin.tolist() == [3, 1, 0, 2]
    assert [s.flags for s in result.schedules] == [(1, 1, 0), (1, 0, 1)]
    for sched, point in zip(result.schedules, result.front):
        assert evaluate_schedule(inst, sched.flags) == point


def test_solve_exact_degenerate_instances():
    assert solve_exact(normalize([(7, 3)])).front.points == (ParetoPoint(7, 10),)
    # identical jobs: splitting dominates stacking
    assert solve_exact(normalize([(4, 2), (4, 2)])).front.points == (ParetoPoint(4, 6),)


def test_reconstruct_worked_instance():
    inst = normalize(WORKED)
    result = solve_exact(inst)
    sched = result.schedules[1]  # point (6, 7)
    assert sched.assignment == {1: 1, 2: 0, 3: 1}

    two = normalize(WORKED[:2])
    res2 = solve_exact(two)
    assert res2.front.points == (ParetoPoint(3, 7),)
    assert res2.schedules[0].assignment == {1: 1, 2: 0}

    single = solve_exact(normalize([(7, 3)]))
    assert single.schedules[0].assignment == {1: 1}


def test_reconstruct_from_scalar_chain():
    inst = normalize(WORKED)
    root = initial_layer(inst)[0]
    _, other = successors(root, 3, 4, inst.prefix[2])
    _, final = successors(other, 4, 1, inst.prefix[3])
    assert (final.lmax, final.cmax) == (7, 6)
    sched = reconstruct(final, inst)
    assert sched.assignment == {1: 1, 2: 0, 3: 1}
    assert evaluate_schedule(inst, sched.flags) == ParetoPoint(6, 7)


def test_reconstruct_rejects_broken_chain():
    inst = normalize(WORKED)
    dangling = DpState(lmax=9, cmax=5, parent=None, choice=CHOICE_SAME)
    with pytest.raises(RuntimeError, match="broken parent chain"):
        reconstruct(dangling, inst)
    too_short = initial_layer(inst)[0]
    with pytest.raises(RuntimeError, match="broken parent chain"):
        reconstruct(too_short, inst)


def test_budget_guard():
    inst = make_instances(5, 1, (30, 30))[0]
    with pytest.raises(StateBudgetError, match="state budget exceeded"):
        solve_exact(inst, budget=10)
    with pytest.raises(ValueError):
        solve_exact(inst, budget=0)


def scalar_reference_layers(inst):
    """Layer-by-layer reference using only the scalar operations."""
    layer = initial_layer(inst)
    yield layer
    for i in range(2, inst.n + 1):
        job = inst.jobs[i - 1]
        children = []
        for state in layer:
            children.extend(successors(state, job.p, job.q, inst.prefix[i]))
        layer = prune(children)
        yield layer


def scalar_layer_records(layers):
    """Per layer: (lmax, cmax, choice, parent position) of every state, in order."""
    records = []
    prev_pos = {}
    for layer in layers:
        records.append(
            [
                (s.lmax, s.cmax, s.choice, None if s.parent is None else prev_pos[id(s.parent)])
                for s in layer
            ]
        )
        prev_pos = {id(s): pos for pos, s in enumerate(layer)}
    return records


def array_layer_records(layers):
    """The same records read off array layers: parent origin >> 1, choice origin & 1."""
    records = []
    for layer in layers:
        records.append(
            [
                (l, c, None if o < 0 else o & 1, None if o < 0 else o >> 1)
                for l, c, o in zip(layer.lmax.tolist(), layer.cmax.tolist(), layer.origin.tolist())
            ]
        )
    return records


def assert_matches_scalar_reference(inst):
    result = solve_exact(inst, keep_layers=True)
    ref_layers = list(scalar_reference_layers(inst))
    assert [layer.i for layer in result.layers] == list(range(1, inst.n + 1))
    for layer in result.layers:
        assert layer.lmax.dtype == layer.cmax.dtype == layer.origin.dtype == np.int64
    # same values, same order and the same tie-break winners (parent, choice)
    assert scalar_layer_records(ref_layers) == array_layer_records(result.layers)
    return result


def test_vectorized_engine_matches_scalar_reference():
    for inst in make_instances(11, 40, (2, 12)):
        assert_matches_scalar_reference(inst)
    # equal loads everywhere: maximal (load, lateness) ties
    for inst in make_instances(11, 10, (2, 12), (3, 3), (1, 4)):
        assert_matches_scalar_reference(inst)


def test_layer_invariants_on_random_instances():
    for inst in make_instances(13, 25, (2, 14)):
        result = solve_exact(inst, keep_layers=True)
        assert result.layers[0].origin.tolist() == [-1]
        for prev, layer in zip((None,) + result.layers, result.layers):
            s_i = inst.prefix[layer.i]
            loads = layer.cmax.tolist()
            # one state per load, in strictly ascending load order
            assert all(a < b for a, b in zip(loads, loads[1:]))
            assert all(math.ceil(s_i / 2) <= c <= s_i for c in loads)
            if prev is not None:
                parents = (layer.origin >> 1).tolist()
                assert all(0 <= j < len(prev) for j in parents)
                assert all(
                    l >= prev.lmax[j] for l, j in zip(layer.lmax.tolist(), parents)
                )


def test_front_matches_oracle_on_random_instances():
    for inst in make_instances(17, 60, (2, 10)):
        assert solve_exact(inst).front.points == enumerate_front(inst).points


def test_schedules_realize_front_points():
    for inst in make_instances(19, 30, (2, 16)):
        result = solve_exact(inst)
        assert len(result.schedules) == len(result.front)
        for sched, point in zip(result.schedules, result.front):
            assert evaluate_schedule(inst, sched.flags) == point


def assert_exact_front_is_oracle_front(jobs):
    inst = normalize(jobs)
    result = assert_matches_scalar_reference(inst)
    assert result.front.points == enumerate_front(inst).points
    assert len(result.schedules) == len(result.front)
    for sched, point in zip(result.schedules, result.front):
        assert evaluate_schedule(inst, sched.flags) == point


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
