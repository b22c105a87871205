"""Seeded closed-loop benchmark of the `bipareto solve` and `bipareto verify` paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client: each operation is one CLI command line run
in-process through `bipareto.cli.main` (read the instance file, solve or
verify, write the front and schedules CSVs), and the next starts when the
previous one ends.  A pass runs every operation of the workload's fixed
instance set once; passes repeat while the next one would end within
``--seconds``.  Every output is checked after its pass (see gate.py); a
failed check makes the operation count as failed and the run exit 1.

Set-up (a fresh interpreter importing the CLI, instance generation,
instance files, reference fronts) runs three times and the median counts.
With ``--trace 1`` the run alternates plain and traced passes, then runs
one pass with allocation tracing, and reports per-layer metrics instead
of end-to-end ones.

Standard output: an ``env`` line, ``det`` lines (one per operation, only
fields that depend on the seed and the code, never on timing), a
``metric`` line per metric, and last one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the names listed in
BENCHMARK.json).  The metric catalogue, with the layer each metric
belongs to and the end-to-end metric it should move, is metrics.json.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One thread of numeric work: the benchmark measures a single client.  Set
# before numpy is first imported (by bipareto, in main).
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must fit in 64 bits, got {args.seed}")
    if args.seconds <= 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bipareto" / "__init__.py").is_file():
        print(f"perfbench: no bipareto package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bipareto

    if not Path(bipareto.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported bipareto from {bipareto.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import runner

    catalogue = json.loads((HERE / "metrics.json").read_text())["metrics"]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in runner.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = runner.run(
        runner.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        root=ROOT,
    )
    for line in result.lines:
        print(line)
    reported = contract["per_layer" if args.trace else "end_to_end"]
    for name, value in sorted(result.metrics.items()):
        unit = catalogue[name]["unit"]
        note = result.notes.get(name, "")
        print(f"metric {name} {value!r} {unit}{' ' + note if note else ''}")
    summary = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]} for m in reported
        },
    }
    print(json.dumps(summary), flush=True)
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
