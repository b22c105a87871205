"""Acceptance suite: eight criteria, one printed PASS/FAIL line each.

The printed lines bypass pytest's capture so every run leaves a
greppable acceptance log.  Shared instance sets are module-scoped
fixtures; every check is exact (integer or rational arithmetic) except
the explicitly directional timing assertions of criterion 6.
"""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from bipareto import (
    GenSpec,
    box_index,
    coverage_check,
    evaluate_schedule,
    exact_layers,
    find_closeness_violation,
    generate_instance,
    grid_params,
    solve_exact,
    solve_fptas,
    trimmed_layers,
)
from bipareto.cli import EXIT_OK, main as cli_main
from bipareto.oracle import enumerate_front

EPS_LIST = (Fraction(3, 10), Fraction(9, 10))

SMALL_COUNT = 500   # n in [2, 12]
MEDIUM_COUNT = 100  # n in [13, 40]


@pytest.fixture
def announce(capfd):
    def _announce(ok, line):
        # leading newline: pytest's progress output leaves the cursor
        # mid-line, and the criterion line should stand alone
        with capfd.disabled():
            print("\n" + ("PASS " if ok else "FAIL ") + line, flush=True)
        assert ok, line
    return _announce


@pytest.fixture(scope="module")
def small_instances():
    spec = GenSpec((2, 12), (1, 20), (1, 20), 101, SMALL_COUNT)
    return [generate_instance(spec, i) for i in range(SMALL_COUNT)]


@pytest.fixture(scope="module")
def medium_instances():
    spec = GenSpec((13, 40), (1, 20), (1, 20), 202, MEDIUM_COUNT)
    return [generate_instance(spec, i) for i in range(MEDIUM_COUNT)]


@pytest.fixture(scope="module")
def small_solved(small_instances):
    return [solve_exact(inst) for inst in small_instances]


@pytest.fixture(scope="module")
def medium_solved(medium_instances):
    return [solve_exact(inst) for inst in medium_instances]


@pytest.fixture(scope="module")
def fptas_runs(small_instances, medium_instances):
    """Per epsilon: one FPTAS result per instance, plus the wall time."""
    instances = small_instances + medium_instances
    start = time.perf_counter()
    runs = {
        eps: [solve_fptas(inst, eps) for inst in instances] for eps in EPS_LIST
    }
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def desk_reports(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk-bench")
    dirs = (base / "run1", base / "run2")
    for out_dir in dirs:
        code = cli_main(
            ["bench", "--preset", "desk", "--seed", "1", "--out-dir", str(out_dir)]
        )
        assert code == EXIT_OK
    return dirs


def test_criterion_1_oracle_equivalence(small_instances, announce):
    start = time.perf_counter()
    mismatches = 0
    for inst in small_instances:
        if solve_exact(inst).front.points != enumerate_front(inst).points:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60
    announce(
        ok,
        f"criterion-1 oracle equivalence: {SMALL_COUNT - mismatches}/{SMALL_COUNT} "
        f"fronts identical, {elapsed:.1f} s (limit 60 s)",
    )


def test_criterion_2_coverage_guarantee(
    small_instances, medium_instances, small_solved, medium_solved, fptas_runs, announce
):
    instances = small_instances + medium_instances
    exact_results = small_solved + medium_solved
    runs, solve_elapsed = fptas_runs
    start = time.perf_counter()
    violations = 0
    for eps in EPS_LIST:
        for exact, approx in zip(exact_results, runs[eps]):
            if not coverage_check(exact.front, approx.front, eps):
                violations += 1
    elapsed = solve_elapsed + (time.perf_counter() - start)
    checks = len(EPS_LIST) * len(instances)
    ok = violations == 0 and elapsed < 120
    announce(
        ok,
        f"criterion-2 coverage guarantee: {checks - violations}/{checks} exact-rational "
        f"checks hold for eps in {{3/10, 9/10}}, {elapsed:.1f} s (limit 120 s)",
    )


def test_criterion_3_layer_drift_bounds(announce):
    spec = GenSpec((2, 10), (1, 20), (1, 20), 303, 50)
    violations = 0
    for index in range(50):
        inst = generate_instance(spec, index)
        for eps in EPS_LIST:
            layers = exact_layers(inst), trimmed_layers(inst, eps)
            if find_closeness_violation(*layers, grid_params(inst, eps)) is not None:
                violations += 1
    ok = violations == 0
    announce(
        ok,
        "criterion-3 layer drift bounds: 50/50 instances, every exact state has a "
        "trimmed state within (i-1)*delta1 above in lateness and within "
        "(i-1)*delta1 in load, zero violations" if ok else
        f"criterion-3 layer drift bounds: {violations} instance/eps pairs violated",
    )


def test_criterion_4_feasibility_round_trip(
    small_instances, medium_instances, small_solved, medium_solved, fptas_runs, announce
):
    instances = small_instances + medium_instances
    runs, _ = fptas_runs
    result_sets = [small_solved + medium_solved] + [runs[eps] for eps in EPS_LIST]
    points = 0
    bad = 0
    for results in result_sets:
        for inst, result in zip(instances, results):
            for sched, point in zip(result.schedules, result.front):
                points += 1
                if evaluate_schedule(inst, sched) != point:
                    bad += 1
    ok = bad == 0
    announce(
        ok,
        f"criterion-4 feasibility round-trip: {points - bad}/{points} front points "
        f"(both solvers) reproduced exactly by their reconstructed schedules",
    )


def test_criterion_5_upper_bound_sanity(small_instances, small_solved, announce):
    bad = 0
    for inst, result in zip(small_instances, small_solved):
        if inst.total_p > 2 * result.front.min_cmax:
            bad += 1
        elif inst.total_p + inst.q_max > 3 * result.front.min_lmax:
            bad += 1
    ok = bad == 0
    announce(
        ok,
        f"criterion-5 upper-bound sanity: P <= 2*Cmax* and P+qmax <= 3*Lmax* on "
        f"{SMALL_COUNT - bad}/{SMALL_COUNT} instances",
    )


def test_criterion_6_complexity_behavior(
    small_instances, medium_instances, fptas_runs, announce
):
    instances = small_instances + medium_instances
    runs, _ = fptas_runs

    # load-box count bound on every FPTAS layer
    bound_violations = 0
    for eps in EPS_LIST:
        for inst, result in zip(instances, runs[eps]):
            grid = grid_params(inst, eps)
            bound = box_index(grid.cmax_bound, grid.delta1) + 1
            if any(size > bound for size in result.layer_sizes):
                bound_violations += 1

    def seconds(solve, *args):
        # the best of five solves, so one stall cannot reorder two timings
        times = []
        for _ in range(5):
            start = time.perf_counter()
            solve(*args)
            times.append(time.perf_counter() - start)
        return min(times)

    # directional timing: big instance, fptas fast, dp slower
    big = generate_instance(GenSpec((200, 200), (1, 1000), (1, 1000), 404, 1), 0)
    fptas_s = seconds(solve_fptas, big, Fraction(3, 10))
    dp_s = seconds(solve_exact, big)

    # dp time grows with the processing-time range
    dp_series = []
    for p_hi in (20, 100, 1000):
        inst = generate_instance(GenSpec((200, 200), (1, p_hi), (1, 1000), 404, 1), 0)
        dp_series.append(seconds(solve_exact, inst))

    ok = (
        bound_violations == 0
        and fptas_s < 10
        and dp_s > 2 * fptas_s
        and dp_series[0] < dp_series[1] < dp_series[2]
    )
    announce(
        ok,
        f"criterion-6 complexity behavior: layer sizes within load-box bound "
        f"({bound_violations} violations); n=200 fptas {fptas_s:.4f} s (limit 10 s); "
        f"dp {dp_s:.4f} s = {dp_s / fptas_s:.1f}x fptas; dp seconds over p-ranges "
        f"{dp_series[0]:.4f} < {dp_series[1]:.4f} < {dp_series[2]:.4f} (best of 5 each)",
    )


def _non_timing_lines(path: Path) -> list[str]:
    timing = {"dp_ms", "fptas_ms", "dp_ms_mean", "fptas_ms_mean"}
    lines = path.read_text().splitlines()
    drop = {i for i, name in enumerate(lines[0].split(",")) if name in timing}
    return [
        ",".join(cell for i, cell in enumerate(line.split(",")) if i not in drop)
        for line in lines
    ]


def test_criterion_7_benchmark_determinism(desk_reports, announce):
    run1, run2 = desk_reports
    names = ("records.csv", "by_family.csv", "by_p_range.csv", "by_q_range.csv")
    differing = [
        name
        for name in names
        if _non_timing_lines(run1 / name) != _non_timing_lines(run2 / name)
    ]
    ok = not differing
    announce(
        ok,
        f"criterion-7 benchmark determinism: desk preset run twice, non-timing "
        f"columns byte-identical in {len(names) - len(differing)}/{len(names)} CSVs"
        + (f" (differs: {differing})" if differing else ""),
    )


def test_criterion_8_quality_trend(desk_reports, announce):
    records = (desk_reports[0] / "records.csv").read_text().splitlines()
    header = records[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    sums = {}  # eps -> [count, sum ratio_c, sum ratio_l]
    bound_violations = 0
    for line in records[1:]:
        cells = line.split(",")
        eps = Fraction(cells[col["eps"]])
        ratio_c = Fraction(cells[col["ratio_c_exact"]])
        ratio_l = Fraction(cells[col["ratio_l_exact"]])
        if ratio_c > 1 + eps or ratio_l > 1 + eps:
            bound_violations += 1
        entry = sums.setdefault(eps, [0, Fraction(0), Fraction(0)])
        entry[0] += 1
        entry[1] += ratio_c
        entry[2] += ratio_l
    n3, c3, l3 = sums[Fraction(3, 10)]
    n9, c9, l9 = sums[Fraction(9, 10)]
    mean_c3, mean_l3 = c3 / n3, l3 / n3
    mean_c9, mean_l9 = c9 / n9, l9 / n9
    ok = (
        n3 >= 100
        and n9 >= 100
        and bound_violations == 0
        and mean_c3 <= mean_c9
        and mean_l3 <= mean_l9
    )
    announce(
        ok,
        f"criterion-8 quality trend: over {n3} instances, mean ratio_c "
        f"{float(mean_c3):.4f} (eps=3/10) <= {float(mean_c9):.4f} (eps=9/10), "
        f"mean ratio_l {float(mean_l3):.4f} <= {float(mean_l9):.4f}, "
        f"all per-row ratios <= 1+eps ({bound_violations} violations)",
    )
