import json
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipareto import (
    MAX_MAGNITUDE,
    Front,
    GridParams,
    Layer,
    ParetoPoint,
    box_index,
    coverage_check,
    evaluate_schedule,
    find_closeness_violation,
    find_coverage_violation,
    grid_params,
    normalize,
    parse_epsilon,
    solve_exact,
    solve_fptas,
)
from bipareto import fptas as fptas_module
from bipareto.fptas import _make_trim_reducer
from conftest import make_instances, successor_pool

WORKED = [(2, 5), (3, 4), (4, 1)]


def test_parse_epsilon():
    assert parse_epsilon("0.3") == Fraction(3, 10)
    assert parse_epsilon("3/10") == Fraction(3, 10)
    assert parse_epsilon(" 2 ") == Fraction(2)
    for bad in ("0", "-1", "0.0", "abc", "1/0", ""):
        with pytest.raises(ValueError):
            parse_epsilon(bad)


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
    """Pool indices kept by the trim reducer from a pool of (lmax, cmax)
    children, with the grid's own box-key dtype and with object keys."""
    pool = successor_pool(pairs)
    winners = [_make_trim_reducer(grid)(pool).tolist()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fptas_module, "_INT64_MAX", 0)  # force object box keys
        winners.append(_make_trim_reducer(grid)(pool).tolist())
    return winners


def reference_trim_winners(pairs, grid):
    """Scalar trim in Python integers: per occupied load box, the child
    with the smallest lmax, ties to the earliest in the pool.  Returns the
    winners' pool indices in pool order."""
    best = {}
    for j, (lmax, cmax) in enumerate(pairs):
        box = box_index(cmax, grid.delta1)
        if box not in best or lmax < best[box][0]:
            best[box] = (lmax, j)
    return sorted(j for _, j in best.values())


def test_trim_merges_identical_values():
    # same box, earliest generated wins
    assert trim_winners([(9, 5), (9, 5)], worked_grid()) == [[0]] * 2


def test_trim_keeps_distinct_boxes():
    # load boxes 4 and 5; trimming keeps dominated states
    assert trim_winners([(7, 6), (8, 8)], worked_grid()) == [[0, 1]] * 2
    # winners stay in pool order, not box order
    assert trim_winners([(8, 8), (7, 6)], worked_grid()) == [[0, 1]] * 2
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
        assert evaluate_schedule(inst, sched.flags) == point


def test_solve_fptas_degenerate():
    assert solve_fptas(normalize([(7, 3)]), Fraction(9, 10)).front.points == (
        ParetoPoint(7, 10),
    )


def test_solve_fptas_tiny_epsilon_degenerates_to_exact():
    # delta1 below 1: every load is its own box, as in the exact solver
    for inst in make_instances(23, 15, (2, 9), (1, 9), (1, 9)):
        eps = Fraction(1, 6 * inst.n)
        grid = grid_params(inst, eps)
        assert grid.delta1 < 1 and grid.delta2 < 1
        assert solve_fptas(inst, eps).front.points == solve_exact(inst).front.points


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


def test_closeness_base_case_and_identity():
    inst = normalize(WORKED)
    exact = solve_exact(inst, keep_layers=True)
    grid = worked_grid()
    first = exact.layers[:1]
    assert find_closeness_violation(first, first, grid) is None
    # identity trimming satisfies the drift bounds with slack zero
    assert find_closeness_violation(exact.layers, exact.layers, grid) is None


def test_closeness_worked_instance():
    inst = normalize(WORKED)
    eps = Fraction(1)
    exact = solve_exact(inst, keep_layers=True)
    approx = solve_fptas(inst, eps, keep_layers=True)
    assert find_closeness_violation(exact.layers, approx.layers, grid_params(inst, eps)) is None


def array_layer(i, pairs):
    """A layer holding the given (lmax, cmax) states, without parents."""
    return Layer(
        i,
        lmax=np.array([l for l, _ in pairs], dtype=np.int64),
        cmax=np.array([c for _, c in pairs], dtype=np.int64),
        origin=np.full(len(pairs), -1, dtype=np.int64),
    )


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
    exact = solve_exact(inst, keep_layers=True)
    layers = list(exact.layers)
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
    partial = layers[:2] + [array_layer(3, [(11, 8)])]
    assert closeness_witness(layers, partial, grid) == (3, ParetoPoint(6, 7))
    # an empty trimmed layer leaves its first exact state uncovered
    empty = layers[:2] + [array_layer(3, [])]
    assert closeness_witness(layers, empty, grid) == (3, ParetoPoint(5, 9))
    # delta2 widens no window: with delta1 = 1 < delta2 = 3, a layer-2
    # state 2 above the exact one is outside (2-1) * delta1 = 1.
    wide = GridParams(delta1=Fraction(1), delta2=Fraction(3), cmax_bound=9, lmax_bound=9)
    exact_2, above = [array_layer(2, [(5, 5)])], [array_layer(2, [(7, 5)])]
    assert closeness_witness(exact_2, above, wide) == (2, ParetoPoint(5, 5))


def test_closeness_rejects_misaligned_layers():
    inst = normalize(WORKED)
    exact = solve_exact(inst, keep_layers=True)
    with pytest.raises(ValueError, match="length"):
        find_closeness_violation(exact.layers, exact.layers[:2], worked_grid())
    swapped = (exact.layers[1], exact.layers[0], exact.layers[2])
    with pytest.raises(ValueError, match="misaligned"):
        find_closeness_violation(exact.layers, swapped, worked_grid())


@st.composite
def closeness_jobs(draw):
    """Job lists for the drift check, at its edges."""
    kind = draw(st.sampled_from(["single", "small", "wide", "huge_p"]))
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
    p_hi = 30 if kind == "small" else 10**12
    n = draw(st.integers(1, 9))
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
    drift window, clipped to [0, MAX_MAGNITUDE]."""
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
        out.append(Layer(layer.i, lmax=lmax, cmax=cmax, origin=np.full(len(cmax), -1)))
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
    exact = solve_exact(inst, keep_layers=True)
    if mode == "identity":
        approx = list(exact.layers)
    else:
        approx = solve_fptas(inst, eps, keep_layers=True).layers
        rng = np.random.default_rng(seed)
        approx = perturbed_layers(
            approx, grid, rng, mode in ("subsampled", "both"), mode in ("shifted", "both")
        )
    found = closeness_witness(exact.layers, approx, grid)
    if mode in ("real", "identity"):
        assert found is None


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


def test_coverage_and_closeness_on_random_instances():
    instances = make_instances(29, 25, (2, 12)) + make_instances(41, 6, (20, 40), (1, 1000))
    for inst in instances:
        exact = solve_exact(inst, keep_layers=True)
        for eps in (Fraction(3, 10), Fraction(9, 10), Fraction(2)):
            approx = solve_fptas(inst, eps, keep_layers=True)
            assert coverage_check(exact.front, approx.front, eps)
            grid = grid_params(inst, eps)
            assert find_closeness_violation(exact.layers, approx.layers, grid) is None


def test_layer_sizes_respect_box_count_bound():
    for inst in make_instances(31, 10, (5, 25), (1, 100), (1, 100)):
        for eps in (Fraction(3, 10), Fraction(9, 10)):
            grid = grid_params(inst, eps)
            bound = box_index(grid.cmax_bound, grid.delta1) + 1
            result = solve_fptas(inst, eps)
            assert max(result.layer_sizes) <= bound


def test_python_fallback_reducer_matches_vectorized(monkeypatch):
    instances = make_instances(37, 10, (2, 14))
    eps = Fraction(3, 10)
    vectorized = [solve_fptas(inst, eps) for inst in instances]
    monkeypatch.setattr(fptas_module, "_INT64_MAX", 0)  # force object box keys
    for inst, vec in zip(instances, vectorized):
        fal = solve_fptas(inst, eps)
        assert fal.front.points == vec.front.points
        assert fal.layer_sizes == vec.layer_sizes
        assert [s.flags for s in fal.schedules] == [s.flags for s in vec.schedules]


def test_huge_epsilon_denominator_uses_exact_arithmetic():
    inst = normalize(WORKED)
    eps = Fraction(1, 10**15)  # overflows any int64 scaling, must still be exact
    exact = solve_exact(inst)
    approx = solve_fptas(inst, eps)
    assert approx.front.points == exact.front.points


GOLDEN = Path(__file__).parent / "data" / "fptas_golden.json"


@pytest.mark.parametrize("fallback", [False, True], ids=["int64", "python-int"])
def test_solve_fptas_matches_golden_record(monkeypatch, fallback):
    """Trimmed fronts, layer sizes and witness flags recorded with one
    state per load box; the trimmed solver must reproduce them exactly on
    both box-key dtypes."""
    if fallback:
        monkeypatch.setattr(fptas_module, "_INT64_MAX", 0)
    cases = json.loads(GOLDEN.read_text())["cases"]
    assert len(cases) == 20
    for case in cases:
        inst = normalize([tuple(job) for job in case["jobs"]])
        result = solve_fptas(inst, Fraction(case["eps"]))
        assert [list(pt) for pt in result.front] == case["front"]
        assert list(result.layer_sizes) == case["layer_sizes"]
        assert ["".join(map(str, s.flags)) for s in result.schedules] == case["flags"]
