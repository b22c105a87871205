"""Benchmark harness: seeded instance families, metrics, and CSV reports.

Instances are drawn from a counter-based Philox stream keyed by
(seed, index), so any single instance reproduces in isolation and whole
suites are byte-deterministic in every non-timing column.  The suite
times the exact solver and the trimming solver per epsilon (median wall
clock over a configurable number of repeats) and reports per-objective
quality ratios as exact rationals.

A measurement is a `Row`, whose fields are the columns of records.csv:
`run_suite` yields each instance's rows, one per epsilon (or one error
row), as soon as they are measured, and `write_report` writes them as
records.csv plus aggregate tables keyed by job-count family, by
processing-time range, and by delivery-time range.  Rationals are
rendered as 6-digit decimals next to exact num/den columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np
from numpy.random import Philox

from .exact import DEFAULT_STATE_BUDGET, solve_exact
from .fptas import solve_fptas
from .io import PathLike, write_text
from .model import Front, Instance, normalize

RECORDS_HEADER = (
    "family,seed,index,n,p_lo,p_hi,q_lo,q_hi,dp_front,dp_ms,"
    "eps,fptas_front,fptas_ms,ratio_c,ratio_l,ratio_c_exact,ratio_l_exact"
)

# Range steps used by every preset: the published protocol crosses
# processing-time and delivery-time ranges over these three intervals.
RANGE_STEPS: tuple[tuple[int, int], ...] = ((1, 20), (1, 100), (1, 1000))

# Largest job count a family may draw.  The paper stops at n = 200; the
# cap keeps a mistyped count from allocating gigabytes before any check.
_MAX_JOBS = 10**6


class Preset(NamedTuple):
    """A benchmark campaign: job-count ranges, instances per cell, timing repeats."""

    n_ranges: tuple[tuple[int, int], ...]
    count: int
    repeats: int


PRESETS: dict[str, Preset] = {
    # Full protocol: five job-count sets, 15 instances per cell, minutes.
    "paper": Preset(((5, 25), (26, 50), (51, 75), (76, 100), (100, 200)), 15, 3),
    # Seconds-scale: the smallest job-count set only.
    "desk": Preset(((5, 25),), 12, 1),
}


@dataclass(frozen=True)
class GenSpec:
    """One instance family: ranges, seed, and how many to draw."""

    n_range: tuple[int, int]
    p_range: tuple[int, int]
    q_range: tuple[int, int]
    seed: int
    count: int

    def __post_init__(self) -> None:
        for name, (lo, hi) in (
            ("n", self.n_range),
            ("p", self.p_range),
            ("q", self.q_range),
        ):
            if lo < 1 or hi < lo:
                raise ValueError(f"invalid {name} range [{lo}, {hi}]")
        if self.n_range[1] > _MAX_JOBS:
            raise ValueError(
                f"invalid n range {list(self.n_range)}: at most {_MAX_JOBS} jobs"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    @property
    def family(self) -> str:
        return f"n{self.n_range[0]}-{self.n_range[1]}"


def generate_instance(spec: GenSpec, index: int) -> Instance:
    """Draw instance ``index`` of the family, reproducibly in isolation.

    The stream is Philox keyed by (seed, index): one word for n, then
    2n words consumed as interleaved (p, q) pairs, each value mapped
    into its range by modular reduction.
    """
    if not 0 <= index < 2**64:
        raise ValueError(f"index must fit in 64 bits, got {index}")
    stream = Philox(key=np.array([spec.seed, index], dtype=np.uint64))
    n_lo, n_hi = spec.n_range
    n = n_lo + int(stream.random_raw(1)[0]) % (n_hi - n_lo + 1)
    words = stream.random_raw(2 * n)
    p_lo, p_hi = spec.p_range
    q_lo, q_hi = spec.q_range
    p_span = p_hi - p_lo + 1
    q_span = q_hi - q_lo + 1
    raw = [
        (p_lo + int(words[2 * j]) % p_span, q_lo + int(words[2 * j + 1]) % q_span)
        for j in range(n)
    ]
    return normalize(raw)


def quality_metrics(exact: Front, approx: Front) -> tuple[Fraction, Fraction]:
    """Per-objective quality: best approximate over best exact, exactly.

    Returns (ratio_c, ratio_l) where ratio_c = min makespan of the
    approximate front / min makespan of the exact front, and ratio_l the
    same for maximum lateness.  Coverage makes both <= 1 + eps.
    """
    if len(exact) == 0 or len(approx) == 0:
        raise ValueError("quality_metrics requires nonempty fronts")
    return (
        Fraction(approx.min_cmax, exact.min_cmax),
        Fraction(approx.min_lmax, exact.min_lmax),
    )


class Row(NamedTuple):
    """One records.csv row: an instance and one epsilon's measurements.

    An instance whose solve raised has a single row with ``error`` set
    and every metric None.
    """

    family: str
    seed: int
    index: int
    n: int
    p_range: tuple[int, int]
    q_range: tuple[int, int]
    dp_front: Optional[int] = None
    dp_ms: Optional[float] = None
    eps: Optional[Fraction] = None
    fptas_front: Optional[int] = None
    fptas_ms: Optional[float] = None
    ratio_c: Optional[Fraction] = None
    ratio_l: Optional[Fraction] = None
    error: Optional[str] = None


def _timed(run: Callable[[], object], repeats: int) -> tuple[object, float]:
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append((time.perf_counter() - start) * 1000.0)
    return result, float(median(times))


def run_suite(
    families: Sequence[GenSpec],
    eps_list: Sequence[Fraction],
    repeats: int = 3,
    *,
    budget: int = DEFAULT_STATE_BUDGET,
) -> Iterator[tuple[Row, ...]]:
    """Solve every family instance exactly and per epsilon, with timings.

    Yields each instance's rows, one per epsilon, as soon as they are
    measured.  Instance indices run globally across the suite so no two
    instances share a Philox key.  A solver failure gives that instance
    one error row and the suite continues.  The arguments are checked
    at the call, before the first instance is drawn.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    eps_list = [Fraction(e) for e in eps_list]
    if not eps_list:
        raise ValueError("eps_list must hold at least one epsilon")
    return _suite_rows(families, eps_list, repeats, budget)


def _suite_rows(
    families: Sequence[GenSpec], eps_list: list[Fraction], repeats: int, budget: int
) -> Iterator[tuple[Row, ...]]:
    index = 0
    for spec in families:
        for _ in range(spec.count):
            inst = generate_instance(spec, index)
            base = (spec.family, spec.seed, index, inst.n, spec.p_range, spec.q_range)
            try:
                exact, dp_ms = _timed(lambda: solve_exact(inst, budget=budget), repeats)
                dp = (*base, len(exact.front), dp_ms)
                rows = []
                for eps in eps_list:
                    approx, fptas_ms = _timed(
                        lambda: solve_fptas(inst, eps, budget=budget), repeats
                    )
                    ratios = quality_metrics(exact.front, approx.front)
                    rows.append(Row(*dp, eps, len(approx.front), fptas_ms, *ratios))
            except Exception as exc:
                rows = [Row(*base, error=f"{type(exc).__name__}: {exc}")]
            yield tuple(rows)
            index += 1


def preset_families(name: str, seed: int) -> list[GenSpec]:
    """The families of preset ``name``: each job-count range crossed with
    RANGE_STEPS for processing times and for delivery times."""
    preset = PRESETS[name]
    return [
        GenSpec(n, p, q, seed, preset.count)
        for n in preset.n_ranges
        for p in RANGE_STEPS
        for q in RANGE_STEPS
    ]


def format_fraction_decimal(value: Fraction) -> str:
    """Six-digit fixed-point decimal of a nonnegative rational, round half up."""
    if value < 0:
        raise ValueError("negative values not supported")
    scaled = value * 10**6
    whole = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    text = str(whole).rjust(7, "0")
    return f"{text[:-6]}.{text[-6:]}"


def _ratio_cells(ratio_c: Fraction, ratio_l: Fraction) -> str:
    """Both ratios as decimals, then both as exact num/den."""
    return (
        f"{format_fraction_decimal(ratio_c)},{format_fraction_decimal(ratio_l)},"
        f"{ratio_c.numerator}/{ratio_c.denominator},"
        f"{ratio_l.numerator}/{ratio_l.denominator}"
    )


def format_records_csv(rows: Iterable[Row]) -> str:
    lines = [RECORDS_HEADER]
    for row in rows:
        prefix = (
            f"{row.family},{row.seed},{row.index},{row.n},"
            f"{row.p_range[0]},{row.p_range[1]},{row.q_range[0]},{row.q_range[1]}"
        )
        if row.error is not None:
            lines.append(f"{prefix},,,,,,,,,")
        else:
            lines.append(
                f"{prefix},{row.dp_front},{row.dp_ms:.3f},"
                f"{row.eps},{row.fptas_front},{row.fptas_ms:.3f},"
                + _ratio_cells(row.ratio_c, row.ratio_l)
            )
    return "\n".join(lines) + "\n"


_AGG_COLUMNS = (
    "eps,instances,dp_front_mean,dp_ms_mean,fptas_front_mean,fptas_ms_mean,"
    "ratio_c_mean,ratio_l_mean,ratio_c_mean_exact,ratio_l_mean_exact"
)

# Aggregate tables: file name, key column, and the key a row groups under.
# by_family.csv is the paper's computing-time table shape; the range tables
# are its quality tables by processing-time and by delivery-time range.
_AGGREGATES: tuple[tuple[str, str, Callable[[Row], str]], ...] = (
    ("by_family.csv", "family", lambda r: r.family),
    ("by_p_range.csv", "p_range", lambda r: f"{r.p_range[0]}-{r.p_range[1]}"),
    ("by_q_range.csv", "q_range", lambda r: f"{r.q_range[0]}-{r.q_range[1]}"),
)


def _aggregate_csv(
    rows: Iterable[Row], key_name: str, key_of: Callable[[Row], str]
) -> str:
    """Means per (key, eps) over the successful rows, in first-seen order."""
    groups: dict[tuple[str, Fraction], list[Row]] = {}
    for row in rows:
        if row.error is None:
            groups.setdefault((key_of(row), row.eps), []).append(row)
    lines = [f"{key_name},{_AGG_COLUMNS}"]
    for (label, eps), cell in groups.items():
        k = len(cell)
        dp_front = Fraction(sum(r.dp_front for r in cell), k)
        fptas_front = Fraction(sum(r.fptas_front for r in cell), k)
        lines.append(
            f"{label},{eps},{k},{format_fraction_decimal(dp_front)},"
            f"{sum(r.dp_ms for r in cell) / k:.3f},"
            f"{format_fraction_decimal(fptas_front)},"
            f"{sum(r.fptas_ms for r in cell) / k:.3f},"
            + _ratio_cells(
                sum(r.ratio_c for r in cell) / k, sum(r.ratio_l for r in cell) / k
            )
        )
    return "\n".join(lines) + "\n"


def write_report(rows: Sequence[Row], out_dir: PathLike) -> list[Path]:
    """Write records.csv and the three aggregate tables; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = [("records.csv", format_records_csv(rows))] + [
        (name, _aggregate_csv(rows, key_name, key_of))
        for name, key_name, key_of in _AGGREGATES
    ]
    paths = []
    for name, text in tables:
        path = out / name
        write_text(path, text)
        paths.append(path)
    return paths
