import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipareto import (
    ParetoPoint,
    enumerate_front,
    evaluate_schedule,
    normalize,
    solve_exact,
)
from conftest import make_instances, pareto_filter


def reference_points(inst):
    """Every assignment with job 1 on flag 1, scored by evaluate_schedule."""
    n = inst.n
    flags = [1] * n
    points = []
    for bits in range(1 << (n - 1)):
        for j in range(1, n):
            flags[j] = (bits >> (j - 1)) & 1
        points.append(evaluate_schedule(inst, flags))
    return points


def reference_enumerate_front(inst):
    """The oracle as a plain loop: score each assignment, then filter
    dominated points."""
    return pareto_filter(reference_points(inst))


def test_worked_instance():
    front = enumerate_front(normalize([(2, 5), (3, 4), (4, 1)]))
    assert front.points == (ParetoPoint(5, 9), ParetoPoint(6, 7))


def test_degenerate_instances():
    assert enumerate_front(normalize([(7, 3)])).points == (ParetoPoint(7, 10),)
    # splitting two unit jobs is optimal in both objectives
    assert enumerate_front(normalize([(1, 0), (1, 0)])).points == (ParetoPoint(1, 1),)


def test_cap():
    inst = make_instances(3, 1, (21, 21))[0]
    with pytest.raises(ValueError, match="too large for oracle: n=21 exceeds cap 20"):
        enumerate_front(inst)


def test_box_with_ties_at_both_ends(monkeypatch):
    # the smallest makespan 9 is reached with lateness 14, 15 and 16, the
    # smallest lateness 13 with makespan 10, 11 and 12: the front's ends
    # take the least of each tie, so the box is cmax <= 10, lmax <= 14
    inst = normalize([(5, 8), (1, 9), (6, 1), (3, 7), (2, 6)])
    points = reference_points(inst)
    c_min = min(p.cmax for p in points)
    l_min = min(p.lmax for p in points)
    assert {p.lmax for p in points if p.cmax == c_min} == {14, 15, 16}
    assert {p.cmax for p in points if p.lmax == l_min} == {10, 11, 12}
    front = pareto_filter(points)
    assert front.points == (ParetoPoint(9, 14), ParetoPoint(10, 13))
    in_box = sum(p.cmax <= 10 and p.lmax <= 14 for p in points)

    sorted_rows = []
    lexsort = np.lexsort

    def spy(keys):
        sorted_rows.append(len(keys[0]))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", spy)
    assert enumerate_front(inst) == front
    # only the rows inside the box reach the sort
    assert sorted_rows == [in_box]


def test_matches_solver_on_random_instances():
    for inst in make_instances(7, 40, (2, 9)):
        assert enumerate_front(inst).points == solve_exact(inst).front.points


@st.composite
def oracle_jobs(draw, kind):
    """Job lists of up to 12 jobs at the edges of the int64 enumeration,
    or with fronts of several points."""
    n = 1 if kind == "single" else draw(st.integers(6 if kind == "wide" else 2, 12))
    if kind == "near_cap":
        # p near 2^59/n and q up to 2^59: P + q_max reaches the 2^60 cap
        hi = 2**59 // n
        ps = [draw(st.integers(hi - 2**20, hi)) for _ in range(n)]
        return [(p, draw(st.integers(0, 2**59))) for p in ps]
    if kind == "wide":
        # p rising while q falls by up to each job's p: a job that ends
        # later delivers sooner, so fronts usually have 3 or more points
        ps = sorted(draw(st.integers(1, 1000)) for _ in range(n))
        steps = [draw(st.integers(0, p)) for p in ps]
        return [(p, sum(steps[i:])) for i, p in enumerate(ps)]
    if kind == "equal_p":
        p = draw(st.integers(1, 30))
        return [(p, draw(st.integers(0, 50))) for _ in range(n)]
    q_hi = 0 if kind == "zero_q" else 50
    return [(draw(st.integers(1, 30)), draw(st.integers(0, q_hi))) for _ in range(n)]


@pytest.mark.parametrize("kind", ["single", "mixed", "equal_p", "zero_q", "near_cap", "wide"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matches_reference_enumeration(kind, data):
    inst = normalize(data.draw(oracle_jobs(kind)))
    assert enumerate_front(inst) == reference_enumerate_front(inst)


@pytest.fixture(scope="module")
def at_cap():
    return make_instances(11, 1, (20, 20), p_range=(1, 10**6))[0]


def test_matches_solver_at_cap(at_cap):
    assert enumerate_front(at_cap) == solve_exact(at_cap).front


def test_memory_at_cap(at_cap):
    # three int64 columns of 2^19 rows are 12.6 MB; the masks that cut
    # them to the front's box add about 2 MB, and the sort sees only
    # the rows inside the box
    tracemalloc.start()
    try:
        enumerate_front(at_cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10**6
