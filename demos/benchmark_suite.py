"""Small benchmark campaign, end to end.

Builds a custom family grid (far smaller than the shipped presets),
runs both solvers over it, and writes the records CSV plus aggregate
tables, then prints the per-family table.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from bipareto import GenSpec, run_suite, write_report

# Three families: fixed n range, growing processing-time range.  Each
# family contributes four instances; epsilons are swept per instance.
specs = [
    GenSpec((20, 30), (1, hi), (1, 50), seed=5, count=4)
    for hi in (20, 100, 500)
]
epsilons = (Fraction(3, 10), Fraction(9, 10))

total = sum(s.count for s in specs)
print("running", total, "instances x", len(epsilons), "epsilons ...")
# run_suite yields each instance's rows (one per epsilon, or a single
# error row) as soon as they are measured.
rows = []
for done, instance_rows in enumerate(run_suite(specs, epsilons), 1):
    rows.extend(instance_rows)
    print(f"  {done}/{total} {instance_rows[0].family} n={instance_rows[0].n}")

failed = [row for row in rows if row.error is not None]
print(f"done: {total} records, {len(failed)} failures")

out_dir = Path(tempfile.mkdtemp(prefix="bipareto-bench-"))
paths = write_report(rows, out_dir)
print("\nreport files:")
for path in paths:
    print(f"  {path}")

# by_family.csv aggregates per (family, eps): mean front sizes, mean
# runtimes, and mean quality ratios both as 6-digit decimals and as
# exact fractions.
print("\nper-family aggregate table:")
print((out_dir / "by_family.csv").read_text())
