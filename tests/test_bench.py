from fractions import Fraction

import pytest

from bipareto import (
    Front,
    GenSpec,
    ParetoPoint,
    generate_instance,
    quality_metrics,
    run_suite,
)
from bipareto import bench as bench_module
from bipareto.bench import (
    PRESETS,
    RECORDS_HEADER,
    Row,
    format_fraction_decimal,
    format_records_csv,
    preset_families,
    write_report,
)


def tiny_families(seed=5, count=4):
    return [GenSpec((3, 6), (1, 9), (1, 9), seed, count)]


def suite_rows(*args, **kwargs):
    """Every row of a suite run, in order."""
    return [row for rows in run_suite(*args, **kwargs) for row in rows]


def test_genspec_validation():
    with pytest.raises(ValueError, match="n range"):
        GenSpec((0, 5), (1, 9), (1, 9), 1, 1)
    with pytest.raises(ValueError, match="p range"):
        GenSpec((1, 5), (9, 1), (1, 9), 1, 1)
    with pytest.raises(ValueError, match="q range"):
        GenSpec((1, 5), (1, 9), (0, 9), 1, 1)
    with pytest.raises(ValueError, match="seed"):
        GenSpec((1, 5), (1, 9), (1, 9), -1, 1)
    with pytest.raises(ValueError, match="count"):
        GenSpec((1, 5), (1, 9), (1, 9), 1, 0)
    # at most 10**6 jobs: a family above it is refused before any draw
    with pytest.raises(ValueError, match="n range"):
        GenSpec((1, 10**6 + 1), (1, 9), (1, 9), 1, 1)
    with pytest.raises(ValueError, match="n range"):
        GenSpec((10**13, 10**13), (1, 9), (1, 9), 1, 1)
    GenSpec((10**6, 10**6), (1, 9), (1, 9), 1, 1)
    assert GenSpec((5, 25), (1, 20), (1, 20), 1, 1).family == "n5-25"


def test_generate_instance_is_deterministic():
    spec = GenSpec((5, 25), (1, 20), (1, 20), 7, 3)
    assert generate_instance(spec, 0) == generate_instance(spec, 0)
    assert generate_instance(spec, 1) == generate_instance(spec, 1)
    # distinct indices give distinct streams
    drawn = {generate_instance(spec, i) for i in range(6)}
    assert len(drawn) == 6
    with pytest.raises(ValueError, match="index"):
        generate_instance(spec, -1)
    # the index is half of a 64-bit Philox key
    with pytest.raises(ValueError, match="index"):
        generate_instance(spec, 2**64)
    assert 5 <= generate_instance(spec, 2**64 - 1).n <= 25


def test_generate_instance_respects_ranges():
    spec = GenSpec((5, 25), (1, 20), (1, 20), 11, 1)
    for index in range(50):
        inst = generate_instance(spec, index)
        assert 5 <= inst.n <= 25
        for job in inst.jobs:
            assert 1 <= job.p <= 20
            assert 1 <= job.q <= 20


def test_generate_instance_degenerate_ranges():
    spec = GenSpec((3, 3), (1, 1), (1, 1), 0, 1)
    inst = generate_instance(spec, 0)
    assert [(j.p, j.q) for j in inst.jobs] == [(1, 1)] * 3


def test_quality_metrics():
    exact = Front((ParetoPoint(5, 9), ParetoPoint(6, 7)))
    assert quality_metrics(exact, exact) == (Fraction(1), Fraction(1))
    assert quality_metrics(exact, Front((ParetoPoint(5, 9),))) == (
        Fraction(1),
        Fraction(9, 7),
    )
    with pytest.raises(ValueError, match="nonempty"):
        quality_metrics(exact, Front(()))


def test_run_suite_records(monkeypatch):
    eps_list = [Fraction(3, 10), Fraction(9, 10)]
    solved = []
    real = bench_module.solve_exact

    def counting(inst, **kwargs):
        solved.append(inst)
        return real(inst, **kwargs)

    monkeypatch.setattr(bench_module, "solve_exact", counting)
    suite = run_suite(tiny_families(), eps_list, 1)
    assert solved == []  # nothing runs before the first instance is asked for
    first = next(suite)
    assert len(solved) == 1  # each instance's rows arrive as soon as measured
    instances = [first, *suite]
    assert len(solved) == 4
    assert [[row.index for row in rows] for rows in instances] == [
        [i, i] for i in range(4)
    ]
    for rows in instances:
        assert [row.eps for row in rows] == eps_list
        for row in rows:
            assert row.error is None
            assert row.family == "n3-6"
            assert row.n == rows[0].n and row.dp_front == rows[0].dp_front
            assert row.ratio_c <= 1 + row.eps
            assert row.ratio_l <= 1 + row.eps
    # arguments are checked at the call, not at the first instance;
    # with no epsilon an instance would have no row
    with pytest.raises(ValueError, match="repeats"):
        run_suite(tiny_families(), eps_list, 0)
    with pytest.raises(ValueError, match="epsilon"):
        run_suite(tiny_families(), [], 1)


def test_run_suite_is_deterministic_outside_timings():
    eps_list = [Fraction(3, 10)]
    a = suite_rows(tiny_families(), eps_list, 1)
    b = suite_rows(tiny_families(), eps_list, 1)
    strip = lambda r: r._replace(dp_ms=None, fptas_ms=None)
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_run_suite_records_failures_and_continues(monkeypatch, tmp_path):
    calls = {"k": 0}
    real = bench_module.solve_exact

    def flaky(inst, **kwargs):
        calls["k"] += 1
        if calls["k"] == 1:
            raise RuntimeError("synthetic solver failure")
        return real(inst, **kwargs)

    monkeypatch.setattr(bench_module, "solve_exact", flaky)
    eps_list = [Fraction(3, 10), Fraction(9, 10)]
    instances = list(run_suite(tiny_families(count=3), eps_list, 1))
    assert [len(rows) for rows in instances] == [1, 2, 2]
    (failed,) = instances[0]
    assert failed.error == "RuntimeError: synthetic solver failure"
    assert failed[6:13] == (None,) * 7  # every metric field
    assert all(row.error is None for rows in instances[1:] for row in rows)
    # the aggregates average the two instances that were measured
    write_report([row for rows in instances for row in rows], tmp_path)
    lines = (tmp_path / "by_family.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["n3-6", "3/10", "2"],
        ["n3-6", "9/10", "2"],
    ]


def test_records_csv_shape():
    rows = suite_rows(tiny_families(count=2), [Fraction(3, 10), Fraction(9, 10)], 1)
    text = format_records_csv(rows)
    lines = text.splitlines()
    assert lines[0] == RECORDS_HEADER
    assert lines[0].startswith(
        "family,seed,index,n,p_lo,p_hi,q_lo,q_hi,dp_front,dp_ms,"
        "eps,fptas_front,fptas_ms,ratio_c,ratio_l"
    )
    assert len(lines) == 1 + 2 * 2  # one row per (instance, eps)
    width = len(RECORDS_HEADER.split(","))
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == width
        assert cells[10] in ("3/10", "9/10")
        eps = Fraction(cells[10])
        for exact_cell in (cells[15], cells[16]):
            num, den = exact_cell.split("/")
            assert Fraction(int(num), int(den)) <= 1 + eps


def test_failed_record_emits_blank_metric_columns():
    row = Row(
        family="n3-6", seed=5, index=0, n=4,
        p_range=(1, 9), q_range=(1, 9), error="RuntimeError: boom",
    )
    lines = format_records_csv([row]).splitlines()
    cells = lines[1].split(",")
    assert len(cells) == len(RECORDS_HEADER.split(","))
    assert cells[:8] == ["n3-6", "5", "0", "4", "1", "9", "1", "9"]
    assert all(cell == "" for cell in cells[8:])


def test_format_fraction_decimal():
    assert format_fraction_decimal(Fraction(1)) == "1.000000"
    assert format_fraction_decimal(Fraction(9, 7)) == "1.285714"
    assert format_fraction_decimal(Fraction(0)) == "0.000000"
    assert format_fraction_decimal(Fraction(25, 10**7)) == "0.000003"  # half rounds up
    with pytest.raises(ValueError):
        format_fraction_decimal(Fraction(-1))


def test_aggregate_table_groups_by_key(tmp_path):
    rows = suite_rows(
        [
            GenSpec((3, 5), (1, 9), (1, 9), 5, 2),
            GenSpec((3, 5), (1, 20), (1, 9), 5, 2),
        ],
        [Fraction(3, 10)],
        1,
    )
    write_report(rows, tmp_path)
    lines = (tmp_path / "by_p_range.csv").read_text().splitlines()
    assert lines[0].startswith("p_range,eps,instances,")
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["1-9", "3/10", "2"],
        ["1-20", "3/10", "2"],
    ]


def test_write_report(tmp_path):
    rows = suite_rows(tiny_families(count=2), [Fraction(3, 10)], 1)
    paths = write_report(rows, tmp_path / "report")
    names = sorted(p.name for p in paths)
    assert names == ["by_family.csv", "by_p_range.csv", "by_q_range.csv", "records.csv"]
    for path in paths:
        assert path.read_text().endswith("\n")


def test_presets():
    assert (PRESETS["desk"].repeats, PRESETS["paper"].repeats) == (1, 3)
    desk = preset_families("desk", 1)
    assert len(desk) == 9
    assert sum(s.count for s in desk) == 108
    assert {s.n_range for s in desk} == {(5, 25)}
    paper = preset_families("paper", 1)
    assert len(paper) == 45
    assert sum(s.count for s in paper) == 675
    assert {s.n_range for s in paper} == {
        (5, 25), (26, 50), (51, 75), (76, 100), (100, 200)
    }
    for spec in desk + paper:
        assert spec.p_range in ((1, 20), (1, 100), (1, 1000))
        assert spec.q_range in ((1, 20), (1, 100), (1, 1000))
