import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from bipareto import (
    Front,
    GenSpec,
    Layer,
    ParetoPoint,
    coverage_check,
    normalize,
    solve_fptas,
)
from bipareto import cli
from bipareto.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from bipareto.io import parse_front_csv, parse_instance, save_instance

WORKED = [(2, 5), (3, 4), (4, 1)]


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
    assert "n=5" in captured.err
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


def test_solve_fptas_covers_dp(worked_file, capsys):
    assert main(["solve", "--input-path", worked_file, "--algo", "dp"]) == EXIT_OK
    dp_front = parse_front_csv(capsys.readouterr().out)
    assert main(["solve", "--input-path", worked_file, "--algo", "fptas",
                 "--epsilon", "0.3"]) == EXIT_OK
    fp_front = parse_front_csv(capsys.readouterr().out)
    assert coverage_check(dp_front, fp_front, Fraction(3, 10))


def test_solve_usage_errors(worked_file, tmp_path):
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
    out = capsys.readouterr().out
    assert "PASS oracle-equality" in out
    assert "PASS coverage" in out
    assert "PASS trim-closeness" in out
    assert "FAIL" not in out


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


def test_verify_reports_corrupted_front(worked_file, monkeypatch, capsys):
    def corrupted(inst, eps, **kwargs):
        result = solve_fptas(inst, eps, **kwargs)
        return dataclasses.replace(
            result, front=Front((ParetoPoint(10**6, 10**6 + 1),))
        )

    monkeypatch.setattr(cli, "solve_fptas", corrupted)
    assert main(["verify", "--input-path", worked_file, "--epsilon", "0.3"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert "FAIL coverage" in captured.out
    assert "(cmax=5, lmax=9)" in captured.out
    assert "1 check(s) failed" in captured.err


def test_verify_reports_trim_closeness_violation(worked_file, monkeypatch, capsys):
    def far_layers(inst, eps, **kwargs):
        result = solve_fptas(inst, eps, **kwargs)
        far = np.array([10**6], dtype=np.int64)
        return dataclasses.replace(
            result,
            layers=tuple(
                Layer(layer.i, lmax=far, cmax=far, origin=np.array([-1], dtype=np.int64))
                for layer in result.layers
            ),
        )

    monkeypatch.setattr(cli, "solve_fptas", far_layers)
    assert main(["verify", "--input-path", worked_file, "--epsilon", "0.3"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert "PASS coverage" in captured.out
    assert (
        "FAIL trim-closeness: layer 1 state (lmax=7, cmax=2) has no trimmed state "
        "with lmax <= 7 + 0*delta1 and cmax within 2 +- 0*delta1\n"
    ) in captured.out
    assert "1 check(s) failed" in captured.err


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
    monkeypatch.setattr(cli.bench, "desk_families", lambda seed: [
        GenSpec((3, 4), (1, 5), (1, 5), seed, 2)
    ])
    assert main(["bench", "--preset", "desk", "--seed", "1",
                 "--out-dir", str(tmp_path / "r")]) == EXIT_FAIL
    assert "2/2 instances failed" in capsys.readouterr().err


def test_usage_and_help():
    assert main([]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK
    assert main(["solve", "--algo", "nope", "--input-path", "x"]) == EXIT_USAGE
