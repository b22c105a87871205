import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bipareto import (
    DEFAULT_STATE_BUDGET,
    Front,
    GenSpec,
    Layer,
    ParetoPoint,
    coverage_check,
    generate_instance,
    normalize,
    trimmed_layers,
)
from bipareto import cli
from bipareto.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from bipareto.io import parse_front_csv, parse_instance, save_instance
from conftest import spy_table_layers

WORKED = [(2, 5), (3, 4), (4, 1)]


def assert_usage_error(capsys, argv):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.txt"
    save_instance(normalize(WORKED), path)
    return str(path)


def test_gen_writes_deterministic_file(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    argv = ["gen", "--n", "5", "--p", "1:20", "--q", "1:20", "--seed", "7",
            "--out-path", str(out)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.strip() == str(out)
    assert captured.err == "n=5 P=47 q_max=19\n"
    first = out.read_bytes()
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == first
    inst = parse_instance(out.read_text())
    assert inst.n == 5
    assert all(1 <= j.p <= 20 and 1 <= j.q <= 20 for j in inst.jobs)


def test_gen_stdout_when_no_out_path(capsys):
    assert main(["gen", "--n", "3", "--p", "1:5", "--q", "1:5", "--seed", "1"]) == EXIT_OK
    captured = capsys.readouterr()
    inst = parse_instance(captured.out)
    assert inst.n == 3
    assert captured.err == "n=3 P=7 q_max=5\n"


def test_gen_usage_errors(tmp_path, capsys):
    assert main(["gen", "--n", "0", "--p", "1:5", "--q", "1:5"]) == EXIT_USAGE
    assert main(["gen", "--n", "3", "--q", "1:5"]) == EXIT_USAGE
    assert main(["gen", "--n", "3", "--p", "5:1", "--q", "1:5"]) == EXIT_USAGE
    assert main(["gen", "--n", "3", "--p", "1-5", "--q", "1:5"]) == EXIT_USAGE
    # ranges have one syntax: the split bound flags do not exist
    assert main(["gen", "--n", "3", "--p", "1:5", "--p-lo", "1",
                 "--q", "1:5"]) == EXIT_USAGE
    assert main(["gen", "--n", "3", "--p", "1:5", "--q", "1:5",
                 "--seed", "-1"]) == EXIT_USAGE
    # value rules the library enforces, reported as usage errors
    for extra in (["--index", "-1"], ["--index", str(2**64)], ["--seed", str(2**64)]):
        assert_usage_error(capsys, ["gen", "--n", "3", "--p", "1:5", "--q", "1:5", *extra])
    # a job count above 10**6 is refused before its 2n words are drawn
    assert_usage_error(capsys, ["gen", "--n", str(10**13), "--p", "1:5", "--q", "1:5"])
    assert_usage_error(capsys, ["gen", "--n", "3", "--p", "0:5", "--q", "1:5"])
    # P + q_max beyond the 2**60 magnitude cap
    assert_usage_error(capsys, ["gen", "--n", "20", "--p", f"1:{10**18}", "--q", "1:5"])
    missing_dir = tmp_path / "nope" / "inst.txt"
    assert main(["gen", "--n", "3", "--p", "1:5", "--q", "1:5",
                 "--out-path", str(missing_dir)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_solve_dp_worked_instance(worked_file, tmp_path, capsys):
    out = tmp_path / "front.csv"
    assert main(["solve", "--input-path", worked_file, "--algo", "dp",
                 "--out-path", str(out), "--schedules"]) == EXIT_OK
    assert out.read_text() == "cmax,lmax\n5,9\n6,7\n"
    sched_path = tmp_path / "front.schedules.csv"
    assert sched_path.exists()
    assert "dp front size 2" in capsys.readouterr().err


def test_solve_rewrites_out_path_in_place(tmp_path, capsys):
    out = tmp_path / "front.csv"
    files = (out, out.with_suffix(".schedules.csv"))

    def solve(n, seed, out_path):
        inst = tmp_path / f"inst{n}.txt"
        assert main(["gen", "--n", str(n), "--p", "1:50", "--q", "1:50",
                     "--seed", str(seed), "--out-path", str(inst)]) == EXIT_OK
        assert main(["solve", "--input-path", str(inst), "--algo", "dp",
                     "--out-path", str(out_path), "--schedules"]) == EXIT_OK
        return [(path.stat().st_ino, path.read_bytes()) for path in files]

    first = solve(12, 5, out)
    assert solve(12, 5, out) == first
    # a smaller front over the same files keeps their inodes and leaves
    # no stale tail: it matches a solve into a fresh path
    smaller = solve(4, 6, out)
    fresh = tmp_path / "fresh.csv"
    solve(4, 6, fresh)
    assert [ino for ino, _ in smaller] == [ino for ino, _ in first]
    assert [data for _, data in smaller] == [
        fresh.read_bytes(), fresh.with_suffix(".schedules.csv").read_bytes()
    ]
    assert len(smaller[1][1]) < len(first[1][1])
    capsys.readouterr()


def test_solve_unwritable_out_path(worked_file, tmp_path, capsys):
    for out in (tmp_path, tmp_path / "nope" / "front.csv"):
        assert main(["solve", "--input-path", worked_file, "--algo", "dp",
                     "--out-path", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: cannot write {out}" in err
        assert "Traceback" not in err
    assert not (tmp_path / "nope").exists()


def test_out_path_may_be_a_device(worked_file, capsys):
    # a file that cannot be truncated is written, not cut
    assert main(["gen", "--n", "5", "--p", "1:20", "--q", "1:20", "--seed", "7",
                 "--out-path", os.devnull]) == EXIT_OK
    assert main(["solve", "--input-path", worked_file, "--algo", "dp",
                 "--out-path", os.devnull]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def test_solve_fptas_covers_dp(worked_file, capsys):
    assert main(["solve", "--input-path", worked_file, "--algo", "dp"]) == EXIT_OK
    dp_front = parse_front_csv(capsys.readouterr().out)
    assert main(["solve", "--input-path", worked_file, "--algo", "fptas",
                 "--epsilon", "0.3"]) == EXIT_OK
    fp_front = parse_front_csv(capsys.readouterr().out)
    assert coverage_check(dp_front, fp_front, Fraction(3, 10))


def test_solve_usage_errors(worked_file, tmp_path, capsys):
    assert main(["solve", "--input-path", worked_file, "--algo", "fptas"]) == EXIT_USAGE
    assert main(["solve", "--input-path", worked_file, "--algo", "dp",
                 "--epsilon", "0.3"]) == EXIT_USAGE
    assert main(["solve", "--input-path", worked_file, "--algo", "fptas",
                 "--epsilon", "-2"]) == EXIT_USAGE
    assert main(["solve", "--input-path", worked_file, "--algo", "dp",
                 "--schedules"]) == EXIT_USAGE
    assert main(["solve", "--input-path", str(tmp_path / "absent.txt"),
                 "--algo", "dp"]) == EXIT_USAGE
    bad = tmp_path / "bad.txt"
    bad.write_text("not an instance\n")
    assert main(["solve", "--input-path", str(bad), "--algo", "dp"]) == EXIT_USAGE
    assert_usage_error(capsys, ["solve", "--input-path", worked_file, "--algo", "dp",
                                "--budget", "0"])


def test_verify_and_bench_usage_errors(worked_file, tmp_path, capsys):
    assert_usage_error(capsys, ["verify", "--input-path", worked_file, "--epsilon", "0.3",
                                "--budget", "-1"])
    assert_usage_error(capsys, ["verify", "--input-path", worked_file, "--epsilon", "0"])
    out_dir = tmp_path / "r"
    for extra in (["--epsilons", ","], ["--epsilons", "0.3,abc"], ["--seed", "-1"]):
        assert_usage_error(capsys, ["bench", "--preset", "desk", "--out-dir", str(out_dir),
                                    *extra])
    assert_usage_error(capsys, ["bench", "--preset", "nope", "--out-dir", str(out_dir)])
    assert not out_dir.exists()


def test_parse_epsilon(worked_file, capsys):
    # decimals are read exactly, never through a binary float
    for text, eps in (("0.3", Fraction(3, 10)), ("3/10", Fraction(3, 10)), (" 2 ", Fraction(2))):
        parsed = cli._epsilon(text)
        assert type(parsed) is Fraction and parsed == eps
    for bad, reason in (
        ("0", "must be positive"),
        ("-1", "must be positive"),
        ("0.0", "must be positive"),
        ("abc", "Invalid literal for Fraction: 'abc'"),
        ("1/0", "Fraction(1, 0)"),
        ("inf", "Invalid literal for Fraction: 'inf'"),
        ("", "Invalid literal for Fraction: ''"),
    ):
        assert main(["verify", "--input-path", worked_file, "--epsilon", bad]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"bipareto verify: error: argument --epsilon: invalid epsilon {bad!r}: {reason}"
        )


def test_solve_budget_exceeded(tmp_path, capsys):
    path = tmp_path / "big.txt"
    assert main(["gen", "--n", "40", "--p", "1:20", "--q", "1:20", "--seed", "2",
                 "--out-path", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", "--input-path", str(path), "--algo", "dp",
                 "--budget", "10"]) == EXIT_BUDGET
    assert "state budget exceeded" in capsys.readouterr().err


def test_verify_all_pass(worked_file, capsys):
    assert main(["verify", "--input-path", worked_file, "--epsilon", "0.3"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "PASS oracle-equality: 2 points match enumeration\n"
        "PASS coverage: 2 exact points covered within 1+3/10\n"
        "PASS trim-closeness: all 3 layers within drift bounds\n"
    )


def test_verify_reports_oracle_mismatch(worked_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "enumerate_front", lambda inst: Front((ParetoPoint(5, 9),)))
    assert main(["verify", "--input-path", worked_file, "--epsilon", "0.3"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == (
        "FAIL oracle-equality: dp front [ParetoPoint(cmax=5, lmax=9), "
        "ParetoPoint(cmax=6, lmax=7)] != oracle front [ParetoPoint(cmax=5, lmax=9)]"
    )
    assert captured.out.splitlines()[1:] == [
        "PASS coverage: 2 exact points covered within 1+3/10",
        "PASS trim-closeness: all 3 layers within drift bounds",
    ]
    assert "1 check(s) failed" in captured.err


def test_verify_skips_oracle_beyond_cap(tmp_path, capsys):
    path = str(tmp_path / "n21.txt")
    assert main(["gen", "--n", "21", "--p", "1:20", "--q", "1:20", "--seed", "5",
                 "--out-path", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--input-path", path, "--epsilon", "0.3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "SKIP oracle-equality: n=21 exceeds oracle cap 20\n" in out
    assert "PASS coverage" in out
    assert "PASS trim-closeness" in out
    # the cap is fixed: no flag can raise it to an exponential enumeration
    assert main(["verify", "--input-path", path, "--epsilon", "0.3",
                 "--cap", "40"]) == EXIT_USAGE


def test_verify_runs_oracle_at_cap(tmp_path, capsys):
    path = str(tmp_path / "n20.txt")
    assert main(["gen", "--n", "20", "--p", "1:20", "--q", "1:20", "--seed", "5",
                 "--out-path", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--input-path", path, "--epsilon", "0.3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS oracle-equality" in out
    assert "FAIL" not in out


def test_verify_reports_corrupted_front(worked_file, monkeypatch, capsys):
    # No trimmed stream that passes the drift check has a front that
    # fails coverage, so the trimmed front is corrupted where verify
    # builds it from the last layer: the exact front first, then this one.
    final_front, fronts = cli._final_front, []

    def corrupted(lmax, cmax):
        front, witnesses = final_front(lmax, cmax)
        fronts.append(front)
        if len(fronts) == 2:
            front = Front((ParetoPoint(10**6, 10**6 + 1),))
        return front, witnesses

    monkeypatch.setattr(cli, "_final_front", corrupted)
    assert main(["verify", "--input-path", worked_file, "--epsilon", "0.3"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert len(fronts) == 2
    assert "FAIL coverage" in captured.out
    assert "(cmax=5, lmax=9)" in captured.out
    assert "1 check(s) failed" in captured.err


def test_verify_reports_trim_closeness_violation(worked_file, monkeypatch, capsys):
    def far_layers(inst, eps, **kwargs):
        # every trimmed layer but the last one is far off
        far = np.array([10**6], dtype=np.int64)
        for layer in trimmed_layers(inst, eps, **kwargs):
            yield layer if layer.i == inst.n else Layer(layer.i, lmax=far, cmax=far)

    monkeypatch.setattr(cli, "trimmed_layers", far_layers)
    assert main(["verify", "--input-path", worked_file, "--epsilon", "0.3"]) == EXIT_FAIL
    captured = capsys.readouterr()
    # the check stops at layer 1, and verify still finishes both streams:
    # the fronts come from their last layers
    assert captured.out.splitlines() == [
        "PASS oracle-equality: 2 points match enumeration",
        "PASS coverage: 2 exact points covered within 1+3/10",
        "FAIL trim-closeness: layer 1 state (lmax=7, cmax=2) has no trimmed state "
        "with lmax <= 7 + 0*delta1 and cmax within 2 +- 0*delta1",
    ]
    assert "1 check(s) failed" in captured.err


def test_verify_budget_exceeded(tmp_path, capsys):
    path = str(tmp_path / "dense200.txt")
    assert main(["gen", "--n", "200", "--p", "1:1000", "--q", "1:1000", "--seed", "404",
                 "--out-path", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--input-path", path, "--budget", "1000",
                 "--epsilon", "3/10"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: state budget exceeded: layer 11 needs up to 1866 live states (budget 1000)\n"
    )


def test_verify_holds_one_layer_of_each_run(monkeypatch):
    # n=200, P 101,976: the exact layers come from the dense table and
    # hold 5.16M states in all, about 83 MB when every layer was kept
    inst = generate_instance(GenSpec((200, 200), (1, 1000), (1, 1000), 404, 1), 0)
    assert inst.total_p == 101_976
    table_layers = spy_table_layers(monkeypatch)
    table_folds = spy_table_layers(monkeypatch, "_table_folds")
    tracemalloc.start()
    try:
        checks = cli._run_verify_checks(inst, Fraction(3, 10), DEFAULT_STATE_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [status for status, _, _ in checks] == ["SKIP", "PASS", "PASS"]
    assert peak < 16 * 2**20, f"verify peaked at {peak / 2**20:.1f} MB"
    # the drift check reads the table's folds once, and builds no layer from them
    assert table_folds == [inst]
    assert table_layers == []


def test_bench_desk_smoke(tmp_path, capsys):
    out_dir = tmp_path / "report"
    assert main(["bench", "--preset", "desk", "--seed", "1",
                 "--out-dir", str(out_dir)]) == EXIT_OK
    captured = capsys.readouterr()
    listed = captured.out.splitlines()
    assert str(out_dir / "records.csv") in listed
    header = (out_dir / "records.csv").read_text().splitlines()[0]
    assert header.startswith("family,seed,index,n,p_lo,p_hi,q_lo,q_hi")
    # two epsilon values by default: two rows per instance
    rows = (out_dir / "records.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 108


def test_bench_exit_fail_when_everything_fails(tmp_path, monkeypatch, capsys):
    def always_raise(inst, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli.bench, "solve_exact", always_raise)
    monkeypatch.setattr(cli.bench, "preset_families", lambda name, seed: [
        GenSpec((3, 4), (1, 5), (1, 5), seed, 2)
    ])
    assert main(["bench", "--preset", "desk", "--seed", "1",
                 "--out-dir", str(tmp_path / "r")]) == EXIT_FAIL
    assert "2/2 instances failed" in capsys.readouterr().err


def test_bench_progress_lines_on_stderr(tmp_path, monkeypatch, capsys):
    spec = GenSpec((3, 4), (1, 5), (1, 5), 1, 3)
    real = cli.bench.solve_exact
    calls = []

    def first_raises(inst, **kwargs):
        calls.append(inst)
        if len(calls) == 1:
            raise RuntimeError("synthetic failure")
        return real(inst, **kwargs)

    monkeypatch.setattr(cli.bench, "solve_exact", first_raises)
    monkeypatch.setattr(cli.bench, "preset_families", lambda name, seed: [spec])
    out_dir = tmp_path / "r"
    assert main(["bench", "--preset", "desk", "--seed", "1",
                 "--out-dir", str(out_dir)]) == EXIT_OK
    captured = capsys.readouterr()
    # failures always print; successes only every 25th instance and the last
    assert captured.err.splitlines() == [
        "[1/3] index 0 FAILED: RuntimeError: synthetic failure",
        f"[3/3] n={generate_instance(spec, 2).n} ok",
        "warning: 1/3 instances failed",
    ]
    assert captured.out.splitlines() == [
        str(out_dir / name)
        for name in ("records.csv", "by_family.csv", "by_p_range.csv", "by_q_range.csv")
    ]


def test_bench_unusable_out_dir_fails_before_the_suite(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the suite ran before --out-dir was checked")

    monkeypatch.setattr(cli.bench, "run_suite", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert_usage_error(capsys, ["bench", "--preset", "desk",
                                "--out-dir", str(blocker / "report")])


def test_usage_and_help():
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK
    assert main(["solve", "--algo", "nope", "--input-path", "x"]) == EXIT_USAGE


def run_module(args, cwd):
    """`python -m bipareto ARGS` in a child interpreter, importing the
    package from this checkout's `src`."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, "-m", "bipareto", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point_readme_walkthrough(tmp_path):
    # README: gen, then solve with schedules, then verify
    steps = [
        ["gen", "--n", "6", "--p", "1:20", "--q", "1:20", "--seed", "3", "--index", "0",
         "--out-path", "inst.txt"],
        ["solve", "--input-path", "inst.txt", "--algo", "dp", "--out-path", "front.csv",
         "--schedules"],
        ["verify", "--input-path", "inst.txt", "--epsilon", "3/10"],
    ]
    for args in steps:
        proc = run_module(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "front.schedules.csv").exists()
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["PASS", "oracle-equality:"], ["PASS", "coverage:"], ["PASS", "trim-closeness:"],
    ]

    missing_eps = run_module(["solve", "--input-path", "inst.txt", "--algo", "fptas"], tmp_path)
    # the README's documented exit codes, as the shell sees them
    assert missing_eps.returncode == 2
    over_budget = run_module(
        ["solve", "--input-path", "inst.txt", "--algo", "dp", "--budget", "1"], tmp_path
    )
    assert over_budget.returncode == 3
    assert "state budget exceeded" in over_budget.stderr
