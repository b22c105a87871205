"""Command-line interface: gen, solve, verify, and bench subcommands.

Conventions: machine-readable data goes to files or stdout, diagnostics
go to stderr.  Exit codes: 0 success, 1 verification failure (or a bench
run where every instance failed), 2 usage or parse errors, 3 state
budget exceeded.  --budget overrides the default state budget.  `gen`
takes its value ranges as --p LO:HI and --q LO:HI.
`verify` compares against brute-force enumeration only up to ORACLE_CAP
(20) jobs, since the oracle scores 2^(n-1) assignments, and reports the
check as SKIP above it.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import bench, io
from .exact import DEFAULT_STATE_BUDGET, StateBudgetError, solve_exact
from .fptas import (
    find_closeness_violation,
    find_coverage_violation,
    grid_params,
    parse_epsilon,
    solve_fptas,
)
from .model import Instance
from .oracle import ORACLE_CAP, enumerate_front

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"{flag} expects LO:HI, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"{flag} expects integers LO:HI, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise _UsageError(f"{flag} range [{lo}, {hi}] is invalid")
    return lo, hi


def _resolve_budget(flag_value: Optional[int]) -> int:
    if flag_value is None:
        return DEFAULT_STATE_BUDGET
    if flag_value < 1:
        raise _UsageError(f"--budget must be >= 1, got {flag_value}")
    return flag_value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipareto",
        description=(
            "Exact and (1+eps)-approximate Pareto fronts of (makespan, "
            "maximum lateness) for two-machine scheduling with delivery times."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a reproducible random instance")
    gen.add_argument("--n", type=int, required=True, help="number of jobs")
    gen.add_argument("--p", metavar="LO:HI", required=True, help="processing time range")
    gen.add_argument("--q", metavar="LO:HI", required=True, help="delivery time range")
    gen.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    gen.add_argument(
        "--index", type=int, default=0, help="instance index within the stream"
    )
    gen.add_argument("--out-path", help="write the instance file here")

    solve = sub.add_parser("solve", help="compute a Pareto front")
    solve.add_argument("--input-path", required=True, help="instance file")
    solve.add_argument("--algo", choices=("dp", "fptas"), required=True)
    solve.add_argument("--epsilon", help="accuracy, e.g. 0.3 or 3/10 (fptas only)")
    solve.add_argument("--out-path", help="write the front CSV here")
    solve.add_argument(
        "--schedules",
        action="store_true",
        help="also write a companion schedules CSV (requires --out-path)",
    )
    solve.add_argument("--budget", type=int, help="state budget override")

    verify = sub.add_parser("verify", help="check solver agreement on an instance")
    verify.add_argument("--input-path", required=True, help="instance file")
    verify.add_argument("--epsilon", required=True, help="accuracy, e.g. 0.3")
    verify.add_argument("--budget", type=int, help="state budget override")

    bench_cmd = sub.add_parser("bench", help="run a benchmark suite")
    bench_cmd.add_argument("--preset", choices=("paper", "desk"), required=True)
    bench_cmd.add_argument(
        "--out-dir", default="bench-report", help="report directory (default bench-report)"
    )
    bench_cmd.add_argument(
        "--epsilons", default="0.3,0.9", help="comma-separated accuracies (default 0.3,0.9)"
    )
    bench_cmd.add_argument("--seed", type=int, default=1, help="suite seed (default 1)")
    bench_cmd.add_argument("--budget", type=int, help="state budget override")

    return parser


def _load_instance(path: str) -> Instance:
    try:
        return io.load_instance(path)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    if not 0 <= args.seed < 2**64:
        raise _UsageError(f"--seed must fit in 64 bits, got {args.seed}")
    if args.index < 0:
        raise _UsageError(f"--index must be >= 0, got {args.index}")
    p_range = _parse_range(args.p, "--p")
    q_range = _parse_range(args.q, "--q")
    spec = bench.GenSpec((args.n, args.n), p_range, q_range, args.seed, 1)
    inst = bench.generate_instance(spec, args.index)
    header = (
        f"seed {args.seed} index {args.index} n {args.n} "
        f"p {p_range[0]}:{p_range[1]} q {q_range[0]}:{q_range[1]}",
    )
    summary = f"n={inst.n} P={inst.total_p} q_max={inst.q_max}"
    if args.out_path:
        try:
            io.save_instance(inst, args.out_path, header)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out_path}: {exc}") from None
        print(args.out_path)
        print(summary, file=sys.stderr)
    else:
        sys.stdout.write(io.format_instance(inst, header))
        print(summary, file=sys.stderr)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.algo == "fptas" and args.epsilon is None:
        raise _UsageError("--algo fptas requires --epsilon")
    if args.algo == "dp" and args.epsilon is not None:
        raise _UsageError("--epsilon is only valid with --algo fptas")
    if args.schedules and not args.out_path:
        raise _UsageError("--schedules requires --out-path")
    budget = _resolve_budget(args.budget)
    inst = _load_instance(args.input_path)
    if args.algo == "fptas":
        try:
            eps = parse_epsilon(args.epsilon)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    start = time.perf_counter()
    if args.algo == "dp":
        result = solve_exact(inst, budget=budget)
    else:
        result = solve_fptas(inst, eps, budget=budget)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    front_text = io.format_front_csv(result.front)
    if args.out_path:
        out_path = Path(args.out_path)
        try:
            out_path.write_text(front_text)
            if args.schedules:
                io.save_schedules_csv(
                    result.schedules, out_path.with_suffix(".schedules.csv")
                )
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out_path}: {exc}") from None
    else:
        sys.stdout.write(front_text)
    print(
        f"{args.algo} front size {len(result.front)} in {elapsed_ms:.1f} ms",
        file=sys.stderr,
    )
    return EXIT_OK


def _run_verify_checks(
    inst: Instance, eps: Fraction, budget: int
) -> list[tuple[str, str, str]]:
    """Returns (status, name, detail) per check; statuses PASS/FAIL/SKIP."""
    checks: list[tuple[str, str, str]] = []
    exact_result = solve_exact(inst, budget=budget, keep_layers=True)
    approx_result = solve_fptas(inst, eps, budget=budget, keep_layers=True)
    exact_front = exact_result.front

    if inst.n > ORACLE_CAP:
        checks.append(
            ("SKIP", "oracle-equality", f"n={inst.n} exceeds oracle cap {ORACLE_CAP}")
        )
    else:
        oracle_front = enumerate_front(inst)
        if exact_front.points == oracle_front.points:
            checks.append(
                ("PASS", "oracle-equality", f"{len(exact_front)} points match enumeration")
            )
        else:
            checks.append(
                (
                    "FAIL",
                    "oracle-equality",
                    f"dp front {list(exact_front.points)} != "
                    f"oracle front {list(oracle_front.points)}",
                )
            )

    violation = find_coverage_violation(exact_front, approx_result.front, eps)
    if violation is None:
        checks.append(
            (
                "PASS",
                "coverage",
                f"{len(exact_front)} exact points covered within 1+{eps}",
            )
        )
    else:
        checks.append(
            (
                "FAIL",
                "coverage",
                f"exact point (cmax={violation.cmax}, lmax={violation.lmax}) has no "
                f"approximate point with cmax <= (1+{eps})*{violation.cmax} and "
                f"lmax <= (1+{eps})*{violation.lmax}",
            )
        )

    grid = grid_params(inst, eps)
    witness = find_closeness_violation(
        exact_result.layers, approx_result.layers, grid
    )
    if witness is None:
        checks.append(
            (
                "PASS",
                "trim-closeness",
                f"all {len(exact_result.layers)} layers within drift bounds",
            )
        )
    else:
        point = witness.point
        drift = f"{witness.layer - 1}*delta1"
        checks.append(
            (
                "FAIL",
                "trim-closeness",
                f"layer {witness.layer} state (lmax={point.lmax}, "
                f"cmax={point.cmax}) has no trimmed state with "
                f"lmax <= {point.lmax} + {drift} and "
                f"cmax within {point.cmax} +- {drift}",
            )
        )
    return checks


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        eps = parse_epsilon(args.epsilon)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    budget = _resolve_budget(args.budget)
    inst = _load_instance(args.input_path)
    checks = _run_verify_checks(inst, eps, budget)
    for status, name, detail in checks:
        print(f"{status} {name}: {detail}")
    failed = sum(1 for status, _, _ in checks if status == "FAIL")
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    budget = _resolve_budget(args.budget)
    if not 0 <= args.seed < 2**64:
        raise _UsageError(f"--seed must fit in 64 bits, got {args.seed}")
    try:
        eps_list = [parse_epsilon(part) for part in args.epsilons.split(",") if part]
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if not eps_list:
        raise _UsageError("--epsilons must name at least one value")
    if args.preset == "paper":
        families = bench.paper_families(args.seed)
        repeats = 3
    else:
        families = bench.desk_families(args.seed)
        repeats = 1

    def progress(done: int, total: int, record: bench.RunRecord) -> None:
        if record.error is not None:
            print(
                f"[{done}/{total}] index {record.index} FAILED: {record.error}",
                file=sys.stderr,
            )
        elif done % 25 == 0 or done == total:
            print(f"[{done}/{total}] n={record.n} ok", file=sys.stderr)

    records = bench.run_suite(
        families, eps_list, repeats, budget=budget, progress=progress
    )
    paths = bench.write_report(records, args.out_dir)
    for path in paths:
        print(path)
    failures = sum(1 for record in records if record.error is not None)
    if failures:
        print(f"warning: {failures}/{len(records)} instances failed", file=sys.stderr)
        if failures == len(records):
            return EXIT_FAIL
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other codes too.
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StateBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
