"""Command-line interface: gen, solve, verify, and bench subcommands.

Conventions: machine-readable data goes to files or stdout, diagnostics
go to stderr.  Exit codes: 0 success, 1 verification failure (or a bench
run where every instance failed), 2 usage or parse errors, 3 state
budget exceeded.  --budget overrides the default state budget.  `gen`
takes its value ranges as --p LO:HI and --q LO:HI.
`verify` compares against brute-force enumeration only up to ORACLE_CAP
(20) jobs, since the oracle scores 2^(n-1) assignments, and reports the
check as SKIP above it.

Each argument is checked once.  argparse's type converters check the
text: --n and --budget are integers >= 1, --p/--q are integer pairs
LO:HI, every --epsilon/--epsilons value is a positive decimal or
fraction literal, read exactly as a Fraction, and --preset names a key
of bench.PRESETS; argparse reports a failure and exits 2.  The library
checks the values: GenSpec rejects ranges with LO < 1 or HI < LO, more
than 10**6 jobs and seeds outside 64 bits, generate_instance rejects an
index outside 64 bits or an instance too large for exact arithmetic,
and `gen` and `bench` turn that ValueError into a usage error.  `bench`
creates --out-dir before it runs the suite, so a directory that cannot
be made is a usage error before any work is done.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from . import bench, io
from .exact import DEFAULT_STATE_BUDGET, Layer, StateBudgetError, solve_exact
from .exact import _exact_stream, _final_front
from .fptas import (
    ClosenessViolation,
    find_closeness_violation,
    find_coverage_violation,
    grid_params,
    solve_fptas,
    trimmed_layers,
)
from .model import Front, Instance
from .oracle import ORACLE_CAP, enumerate_front

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_T = TypeVar("_T")


class _UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expects an integer >= 1, got {text!r}")
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects integers LO:HI, got {text!r}") from None
    return lo, hi


def _epsilon(text: str) -> Fraction:
    # Fraction scans a decimal digit-wise: "0.3" is exactly 3/10, never a float
    try:
        eps = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid epsilon {text!r}: {exc}") from None
    if eps <= 0:
        raise argparse.ArgumentTypeError(f"invalid epsilon {text!r}: must be positive")
    return eps


def _epsilons(text: str) -> list[Fraction]:
    return [_epsilon(part) for part in text.split(",")]


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
    gen.add_argument("--n", type=_positive_int, required=True, help="number of jobs")
    for flag, times in (("--p", "processing"), ("--q", "delivery")):
        gen.add_argument(
            flag, type=_parse_range, metavar="LO:HI", required=True,
            help=f"{times} time range",
        )
    gen.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    gen.add_argument(
        "--index", type=int, default=0, help="instance index within the stream"
    )
    gen.add_argument("--out-path", help="write the instance file here")

    solve = sub.add_parser("solve", help="compute a Pareto front")
    solve.add_argument("--input-path", required=True, help="instance file")
    solve.add_argument("--algo", choices=("dp", "fptas"), required=True)
    solve.add_argument(
        "--epsilon", type=_epsilon, help="accuracy, e.g. 0.3 or 3/10 (fptas only)"
    )
    solve.add_argument("--out-path", help="write the front CSV here")
    solve.add_argument(
        "--schedules",
        action="store_true",
        help="also write a companion schedules CSV (requires --out-path)",
    )

    verify = sub.add_parser("verify", help="check solver agreement on an instance")
    verify.add_argument("--input-path", required=True, help="instance file")
    verify.add_argument("--epsilon", type=_epsilon, required=True, help="accuracy, e.g. 0.3")

    bench_cmd = sub.add_parser("bench", help="run a benchmark suite")
    bench_cmd.add_argument("--preset", choices=bench.PRESETS, required=True)
    bench_cmd.add_argument(
        "--out-dir", default="bench-report", help="report directory (default bench-report)"
    )
    bench_cmd.add_argument(
        "--epsilons", type=_epsilons, default="0.3,0.9",
        help="comma-separated accuracies (default 0.3,0.9)",
    )
    bench_cmd.add_argument("--seed", type=int, default=1, help="suite seed (default 1)")

    for cmd in (solve, verify, bench_cmd):
        cmd.add_argument(
            "--budget", type=_positive_int, default=DEFAULT_STATE_BUDGET,
            help="state budget override",
        )

    return parser


# main's parser, built once per process: parse_args does not change it.
_parser = functools.cache(build_parser)


def _load_instance(path: str) -> Instance:
    try:
        return io.load_instance(path)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = bench.GenSpec((args.n, args.n), args.p, args.q, args.seed, 1)
        inst = bench.generate_instance(spec, args.index)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    header = (
        f"seed {args.seed} index {args.index} n {args.n} "
        f"p {args.p[0]}:{args.p[1]} q {args.q[0]}:{args.q[1]}",
    )
    if args.out_path:
        try:
            io.save_instance(inst, args.out_path, header)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out_path}: {exc}") from None
        print(args.out_path)
    else:
        sys.stdout.write(io.format_instance(inst, header))
    print(f"n={inst.n} P={inst.total_p} q_max={inst.q_max}", file=sys.stderr)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.algo == "fptas" and args.epsilon is None:
        raise _UsageError("--algo fptas requires --epsilon")
    if args.algo == "dp" and args.epsilon is not None:
        raise _UsageError("--epsilon is only valid with --algo fptas")
    if args.schedules and not args.out_path:
        raise _UsageError("--schedules requires --out-path")
    inst = _load_instance(args.input_path)
    start = time.perf_counter()
    if args.algo == "dp":
        result = solve_exact(inst, budget=args.budget)
    else:
        result = solve_fptas(inst, args.epsilon, budget=args.budget)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    front_text = io.format_front_csv(result.front)
    if args.out_path:
        out_path = Path(args.out_path)
        try:
            io.write_text(out_path, front_text)
            if args.schedules:
                io.save_schedules_csv(
                    inst, result.schedules, out_path.with_suffix(".schedules.csv")
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


def _check(
    name: str, found: Optional[_T], passed: str, failed: Callable[[_T], str]
) -> tuple[str, str, str]:
    """PASS with ``passed`` if the check ``found`` nothing, else FAIL with
    ``failed(found)``."""
    return ("PASS", name, passed) if found is None else ("FAIL", name, failed(found))


def _last_front(layer: Layer | tuple[int, int, np.ndarray]) -> Front:
    """The front of a run's last layer, or of the dense table's last
    fold, whose cells are the makespans from ``start`` on."""
    if isinstance(layer, Layer):
        return _final_front(layer.lmax, layer.cmax)[0]
    _, start, folded = layer
    return _final_front(folded, np.arange(start, start + len(folded)))[0]


def _run_verify_checks(
    inst: Instance, eps: Fraction, budget: int
) -> list[tuple[str, str, str]]:
    """Returns (status, name, detail) per check; statuses PASS/FAIL/SKIP.

    The drift check reads the exact and the trimmed run's layers as
    streams, one pair at a time; on the dense route the exact stream is
    the table's folds, which the check reads without building layers.
    Both fronts come from the streams' last layers, so no layer is kept
    and no witness is built."""
    last: list = [None, None]  # each run's latest layer or fold

    def keep_last(run: int, layers: Iterable) -> Iterator:
        for last[run] in layers:
            yield last[run]

    runs = _exact_stream(inst, budget), trimmed_layers(inst, eps, budget=budget)
    streams = [keep_last(run, layers) for run, layers in enumerate(runs)]
    far = find_closeness_violation(*streams, grid_params(inst, eps))
    for stream in streams:  # the check stops at a violation: finish both runs
        for _ in stream:
            pass
    exact_front, approx_front = map(_last_front, last)

    if inst.n > ORACLE_CAP:
        oracle = ("SKIP", "oracle-equality", f"n={inst.n} exceeds oracle cap {ORACLE_CAP}")
    else:
        oracle_front = enumerate_front(inst)
        oracle = _check(
            "oracle-equality",
            None if exact_front.points == oracle_front.points else oracle_front,
            f"{len(exact_front)} points match enumeration",
            lambda other: f"dp front {list(exact_front.points)} != "
            f"oracle front {list(other.points)}",
        )

    coverage = _check(
        "coverage",
        find_coverage_violation(exact_front, approx_front, eps),
        f"{len(exact_front)} exact points covered within 1+{eps}",
        lambda pt: f"exact point (cmax={pt.cmax}, lmax={pt.lmax}) has no "
        f"approximate point with cmax <= (1+{eps})*{pt.cmax} and "
        f"lmax <= (1+{eps})*{pt.lmax}",
    )

    def far_state(witness: ClosenessViolation) -> str:
        pt, drift = witness.point, f"{witness.layer - 1}*delta1"
        return (
            f"layer {witness.layer} state (lmax={pt.lmax}, cmax={pt.cmax}) has no "
            f"trimmed state with lmax <= {pt.lmax} + {drift} and "
            f"cmax within {pt.cmax} +- {drift}"
        )

    closeness = _check(
        "trim-closeness", far, f"all {inst.n} layers within drift bounds", far_state
    )
    return [oracle, coverage, closeness]


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.input_path)
    checks = _run_verify_checks(inst, args.epsilon, args.budget)
    for status, name, detail in checks:
        print(f"{status} {name}: {detail}")
    failed = sum(1 for status, _, _ in checks if status == "FAIL")
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        families = bench.preset_families(args.preset, args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    try:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot create {args.out_dir}: {exc}") from None

    suite = bench.run_suite(
        families, args.epsilons, bench.PRESETS[args.preset].repeats, budget=args.budget
    )
    total = sum(spec.count for spec in families)
    rows: list[bench.Row] = []
    for done, instance_rows in enumerate(suite, 1):
        rows.extend(instance_rows)
        first = instance_rows[0]
        if first.error is not None:
            print(
                f"[{done}/{total}] index {first.index} FAILED: {first.error}",
                file=sys.stderr,
            )
        elif done % 25 == 0 or done == total:
            print(f"[{done}/{total}] n={first.n} ok", file=sys.stderr)
    paths = bench.write_report(rows, args.out_dir)
    for path in paths:
        print(path)
    # a failed instance has exactly one row, its error row
    failures = sum(1 for row in rows if row.error is not None)
    if failures:
        print(f"warning: {failures}/{total} instances failed", file=sys.stderr)
        if failures == total:
            return EXIT_FAIL
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
