import math

import pytest
from hypothesis import given, strategies as st

from bipareto import (
    Front,
    Job,
    ParetoPoint,
    dominates,
    evaluate_schedule,
    normalize,
)
from bipareto.model import MAX_MAGNITUDE
from conftest import pareto_filter


def test_normalize_sorts_by_delivery_time():
    inst = normalize([(3, 4), (2, 5)])
    assert [(j.p, j.q) for j in inst.jobs] == [(2, 5), (3, 4)]
    assert [j.id for j in inst.jobs] == [2, 1]
    assert inst.total_p == 5
    assert inst.q_max == 5
    assert inst.prefix == (0, 2, 5)


def test_normalize_singleton():
    inst = normalize([(7, 0)])
    assert inst.n == 1
    assert inst.total_p == 7
    assert inst.q_max == 0
    assert inst.jobs[0] == Job(1, 7, 0)


def test_normalize_stable_tie_break():
    inst = normalize([(1, 3), (1, 3), (1, 3)])
    assert [j.id for j in inst.jobs] == [1, 2, 3]
    assert inst.total_p == 3


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError, match="empty instance"):
        normalize([])
    with pytest.raises(ValueError, match="job 2"):
        normalize([(1, 1), (0, 1)])
    with pytest.raises(ValueError, match="job 1"):
        normalize([(1, -1)])
    with pytest.raises(ValueError, match="integers"):
        normalize([(1.5, 1)])
    with pytest.raises(ValueError, match="integers"):
        normalize([(True, 1)])
    with pytest.raises(ValueError, match="too large"):
        normalize([(MAX_MAGNITUDE, 1)])


def test_evaluate_schedule_worked_instance():
    inst = normalize([(2, 5), (3, 4), (4, 1)])
    # machine 1 gets jobs 1 and 3, machine 2 gets job 2
    assert evaluate_schedule(inst, [1, 0, 1]) == ParetoPoint(6, 7)
    # everything on one machine: completions 2, 5, 9
    assert evaluate_schedule(inst, [1, 1, 1]) == ParetoPoint(9, 10)
    assert evaluate_schedule(inst, [0, 0, 0]) == ParetoPoint(9, 10)


def test_evaluate_schedule_rejects_bad_assignment():
    inst = normalize([(2, 5), (3, 4)])
    with pytest.raises(ValueError, match="covers 1"):
        evaluate_schedule(inst, [1])
    with pytest.raises(ValueError, match="flag"):
        evaluate_schedule(inst, [1, 2])


def test_dominates():
    assert not dominates(ParetoPoint(5, 9), ParetoPoint(6, 7))
    assert not dominates(ParetoPoint(6, 7), ParetoPoint(5, 9))
    assert dominates(ParetoPoint(6, 7), ParetoPoint(7, 8))
    assert not dominates(ParetoPoint(4, 4), ParetoPoint(4, 4))


def test_pareto_filter_worked_points():
    points = [ParetoPoint(9, 10), ParetoPoint(5, 9), ParetoPoint(7, 8), ParetoPoint(6, 7)]
    assert pareto_filter(points).points == (ParetoPoint(5, 9), ParetoPoint(6, 7))


def test_pareto_filter_edge_cases():
    assert pareto_filter([ParetoPoint(4, 4)]).points == (ParetoPoint(4, 4),)
    assert pareto_filter([ParetoPoint(3, 8), ParetoPoint(3, 6)]).points == (ParetoPoint(3, 6),)
    assert pareto_filter([]).points == ()
    # duplicates collapse
    assert pareto_filter([ParetoPoint(3, 6)] * 3).points == (ParetoPoint(3, 6),)


def test_pareto_filter_idempotent():
    front = pareto_filter([ParetoPoint(9, 10), ParetoPoint(5, 9), ParetoPoint(6, 7)])
    assert pareto_filter(front.points).points == front.points


def test_front_rejects_dominated_points():
    with pytest.raises(ValueError, match="not a Pareto front"):
        Front((ParetoPoint(5, 9), ParetoPoint(6, 9)))
    with pytest.raises(ValueError, match="not a Pareto front"):
        Front((ParetoPoint(5, 9), ParetoPoint(5, 7)))


def test_front_accessors():
    front = Front((ParetoPoint(5, 9), ParetoPoint(6, 7)))
    assert len(front) == 2
    assert front[0] == ParetoPoint(5, 9)
    assert list(front) == [ParetoPoint(5, 9), ParetoPoint(6, 7)]
    assert front.min_cmax == 5
    assert front.min_lmax == 7


points_st = st.lists(
    st.tuples(st.integers(1, 50), st.integers(1, 50)).map(lambda t: ParetoPoint(*t)),
    min_size=1,
    max_size=30,
)


@given(points_st)
def test_pareto_filter_is_minimal_and_complete(points):
    front = pareto_filter(points)
    for a in front:
        for b in front:
            if a != b:
                assert not dominates(a, b)
    for p in points:
        assert any(f == p or dominates(f, p) for f in front)


jobs_st = st.lists(st.tuples(st.integers(1, 9), st.integers(0, 9)), min_size=1, max_size=8)


@given(jobs_st, st.integers(0, 2**16))
def test_evaluate_schedule_load_bounds(raw, bits):
    inst = normalize(raw)
    flags = [(bits >> i) & 1 for i in range(inst.n)]
    point = evaluate_schedule(inst, flags)
    assert math.ceil(inst.total_p / 2) <= point.cmax <= inst.total_p
    # flipping every flag changes nothing: machines are identical
    assert evaluate_schedule(inst, [1 - f for f in flags]) == point
