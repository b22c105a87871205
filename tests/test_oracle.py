import pytest

from bipareto import ParetoPoint, enumerate_front, normalize, solve_exact
from conftest import make_instances


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


def test_matches_solver_on_random_instances():
    for inst in make_instances(7, 40, (2, 9)):
        assert enumerate_front(inst).points == solve_exact(inst).front.points
