"""Spans and work counts around the public functions the `bipareto` CLI calls.

`Tracer.installed()` swaps those functions, in the module namespaces the
CLI looks them up in, for wrappers that record a span per call (name,
operation, parent span, start, end) and read work counts off the
returned values; leaving the block restores the originals, so no
source file of the package changes.  Spans stay in memory and are
written out when the run ends.  With `measure_alloc` set, each solver
call also runs under `tracemalloc` and its peak is kept per layer; that
slows pure-Python allocation several times over, so the runner does it
in a separate pass whose times it does not use.
"""

from __future__ import annotations

import functools
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, Optional

from bipareto import box_index, cli, grid_params, io

# Counts that keep the largest value seen in a pass rather than the sum.
MAX_COUNTS = ("exact.widest_layer", "fptas.widest_layer", "fptas.box_fill")


@dataclass
class Span:
    name: str
    pass_no: int
    op: Optional[str]
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.pass_no = 0
        self.op: Optional[str] = None
        # op name -> count name -> value, for the current pass
        self.counts: dict[str, dict[str, float]] = {}
        self.measure_alloc = False
        self.peak_mb: dict[str, float] = defaultdict(float)

    def begin_pass(self, pass_no: int, measure_alloc: bool = False) -> None:
        self.pass_no = pass_no
        self.counts = {}
        self.measure_alloc = measure_alloc

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.pass_no, self.op, parent, perf_counter()))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = perf_counter()
            self._open.pop()

    @contextmanager
    def operation(self, name: str) -> Iterator[None]:
        """Root span of one CLI command; child spans and counts belong to it."""
        self.op = name
        self.counts[name] = defaultdict(int)
        try:
            with self.span("cli.op"):
                yield
        finally:
            self.op = None

    def _count(self, name: str, value: float) -> None:
        counts = self.counts[self.op]
        if name in MAX_COUNTS:
            counts[name] = max(counts[name], value)
        else:
            counts[name] += value

    def _count_solve(self, layer: str, result) -> None:
        sizes = result.layer_sizes
        self._count(f"{layer}.children", 2 * sum(sizes[:-1]))
        self._count(f"{layer}.kept_after_root", sum(sizes[1:]))
        self._count(f"{layer}.states_kept", sum(sizes))
        self._count(f"{layer}.widest_layer", max(sizes))

    def _after_exact(self, args, kwargs, result) -> None:
        self._count_solve("exact", result)

    def _after_fptas(self, args, kwargs, result) -> None:
        self._count_solve("fptas", result)
        inst, eps = args[0], args[1]
        grid = grid_params(inst, eps)
        boxes = (box_index(grid.cmax_bound, grid.delta1) + 1) * (
            box_index(grid.lmax_bound, grid.delta2) + 1
        )
        self._count("fptas.box_fill", max(result.layer_sizes) / boxes)

    def _after_oracle(self, args, kwargs, result) -> None:
        self._count("oracle.assignments", 2 ** (args[0].n - 1))

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        layer = name.split(".")[0]
        alloc = name.endswith(".solve")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:  # not inside a traced command: pass through
                return fn(*args, **kwargs)
            with self.span(name):
                if alloc and self.measure_alloc:
                    tracemalloc.start()
                    try:
                        result = fn(*args, **kwargs)
                        peak = tracemalloc.get_traced_memory()[1] / 2**20
                    finally:
                        tracemalloc.stop()
                    self.peak_mb[layer] = max(self.peak_mb[layer], peak)
                else:
                    result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        targets = [
            (io, "load_instance", "io.parse", None),
            (io, "format_front_csv", "io.write", None),
            (io, "save_schedules_csv", "io.write", None),
            (cli, "solve_exact", "exact.solve", self._after_exact),
            (cli, "solve_fptas", "fptas.solve", self._after_fptas),
            (cli, "find_coverage_violation", "fptas.coverage", None),
            (cli, "find_closeness_violation", "fptas.closeness", None),
            (cli, "enumerate_front", "oracle.enumerate", self._after_oracle),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for module, attr, name, after in targets:
                setattr(module, attr, self._wrap(name, getattr(module, attr), after))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def pass_seconds(self, pass_no: int) -> dict[str, float]:
        """Seconds per span name in one pass, plus `cli.self`: command
        time not covered by any traced call inside it."""
        totals: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.pass_no != pass_no:
                continue
            totals[span.name] += span.seconds
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        for index, span in enumerate(self.spans):
            if span.pass_no == pass_no and span.name == "cli.op":
                totals["cli.self"] += span.seconds - child_time[index]
        return dict(totals)

    def pass_counts(self) -> dict[str, float]:
        """Counts of the current pass, summed (or maxed) over operations."""
        total: dict[str, float] = defaultdict(int)
        for counts in self.counts.values():
            for name, value in counts.items():
                if name in MAX_COUNTS:
                    total[name] = max(total[name], value)
                else:
                    total[name] += value
        return dict(total)
