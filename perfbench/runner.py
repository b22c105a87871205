"""Set-up, the timed closed loop, output checks and metric reduction."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from io import StringIO
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

import bipareto
from bipareto import cli, quality_metrics
from bipareto.io import load_instance
from bipareto.model import Front, Instance

import gate
from tracing import Tracer
from workloads import (
    DP_REFERENCE_EPS,
    WORKLOADS,
    Op,
    Workload,
    as_front,
    generate,
    operations,
    write_instances,
)

SETUP_REPEATS = 3
REF_SORT_SIZE = 1_000_000
REF_LOOP_STEPS = 2_400_000
# Run in a child interpreter: prints workloads.reference_fronts(kind, paths) as JSON.
REFERENCE_CHILD = (
    "import json, sys, workloads; "
    "print(json.dumps(workloads.reference_fronts(sys.argv[1], sys.argv[2:])))"
)
P90_MIN_SAMPLES = 100  # leaves at least ten samples above the 90th percentile

# Per-pass span totals reported by a traced run, and the counts beside them.
SPAN_METRICS = (
    "io.parse",
    "io.write",
    "exact.solve",
    "fptas.solve",
    "fptas.coverage",
    "fptas.closeness",
    "oracle.enumerate",
    "cli.self",
)
COUNT_METRICS = (
    "exact.children",
    "exact.states_kept",
    "exact.widest_layer",
    "fptas.children",
    "fptas.states_kept",
    "fptas.widest_layer",
    "fptas.box_fill",
    "oracle.assignments",
)


def reference_kernel() -> float:
    """Seconds taken by fixed work of the two kinds the program does: a
    numpy lexsort of integer pairs and a pure-Python loop.

    On a shared host the CPU's speed can shift by tens of per cent over
    minutes (neighbouring load, stolen CPU time).  An untraced run times this kernel
    before its first pass and after every pass; a pass's time divided by
    the kernel's time around it (``wall_rel``) cancels most of that shift,
    while any change to bipareto still moves it in full.
    """
    keys = np.random.default_rng(0).integers(0, 10**6, (2, REF_SORT_SIZE))
    start = perf_counter()
    np.lexsort(keys)
    total = 0
    for i in range(REF_LOOP_STEPS):
        total += i * i
    return perf_counter() - start


@dataclass
class Setup:
    instances: list[Instance]
    ops: list[Op]
    references: Optional[list[Front]]
    generate_s: float
    seconds: float


@dataclass
class Outcome:
    seconds: float
    exit_code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str] = None


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    lines: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)


def set_up(workload: Workload, seed: int, work: Path, root: Path) -> Setup:
    start = perf_counter()
    # What every `bipareto` command pays before its work: a fresh
    # interpreter importing the CLI (this process has imported it already).
    pythonpath = [str(root / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    subprocess.run(
        [sys.executable, "-c", "import bipareto.cli"], cwd=root, env=env, check=True, timeout=120
    )
    generate_start = perf_counter()
    instances = generate(workload, seed)
    generate_s = perf_counter() - generate_start
    paths = write_instances(instances, work, seed)
    # Job ids in the CLI's schedule files follow the instance file's order.
    instances = [load_instance(path) for path in paths]
    references = None
    if workload.kind != "verify":
        # A separate process, so reference solves leave this one's peak RSS
        # alone.  subprocess.run waits for it (and kills it on a timeout).
        child = subprocess.run(
            [sys.executable, "-c", REFERENCE_CHILD, workload.kind, *map(str, paths)],
            cwd=root,
            env=dict(env, PYTHONPATH=os.pathsep.join([str(root / "perfbench"), env["PYTHONPATH"]])),
            capture_output=True,
            text=True,
            timeout=150,
        )
        if child.returncode:
            raise RuntimeError(f"reference fronts failed:\n{child.stderr[-2000:]}")
        references = [as_front(points) for points in json.loads(child.stdout)]
    ops = operations(workload, paths, work)
    return Setup(instances, ops, references, generate_s, perf_counter() - start)


def execute(op: Op, tracer: Optional[Tracer]) -> Outcome:
    out, err = StringIO(), StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = cli.main(list(op.argv))
            else:
                with tracer.operation(op.name):
                    code = cli.main(list(op.argv))
    except Exception:  # the loop must go on; the operation counts as failed
        error = traceback.format_exc()
        return Outcome(perf_counter() - start, None, out.getvalue(), err.getvalue(), error)
    return Outcome(perf_counter() - start, code, out.getvalue(), err.getvalue())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(
    workload: Workload, op: Op, outcome: Outcome, inst: Instance, reference: Optional[Front]
) -> tuple[list[str], dict]:
    """Problems with one operation's output, and its deterministic record."""
    record: dict = {"op": op.name, "n": inst.n, "P": inst.total_p, "q_max": inst.q_max}
    if outcome.error is not None:
        return [f"raised: {outcome.error.strip().splitlines()[-1]}"], record
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code}: {outcome.stderr.strip()}"], record
    if workload.kind == "verify":
        record["verify"] = outcome.stdout.splitlines()
        return gate.check_verify(inst, outcome.stdout), record
    front_text = op.front_path.read_text()
    schedules_text = op.schedules_path.read_text()
    record["bytes_out"] = op.front_path.stat().st_size + op.schedules_path.stat().st_size
    record["front_sha"] = _digest(front_text)
    record["schedules_sha"] = _digest(schedules_text)
    front, problems = gate.check_witnesses(inst, front_text, schedules_text)
    if front is None:
        return problems, record
    record["front"] = len(front)
    if workload.kind == "dp":
        problems += gate.check_exact_vs_approx(front, reference, DP_REFERENCE_EPS)
    else:
        problems += gate.check_exact_vs_approx(reference, front, op.eps)
        if not problems:
            ratio_c, ratio_l = quality_metrics(reference, front)
            record["ratio_c"] = str(ratio_c)
            record["ratio_l"] = str(ratio_l)
    return problems, record


def environment(seed: int, root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():  # a plain source tree has no commit to report
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "bipareto").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bipareto": bipareto.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": sources.hexdigest()[:16],
    }


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    root: Path,
) -> Result:
    """One benchmark run: set-ups, the timed passes, checks, metrics."""
    result = Result()
    result.lines.append(f"env {json.dumps(environment(seed, root), sort_keys=True)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        work = Path(tmp)
        setups = [set_up(workload, seed, work, root) for _ in range(SETUP_REPEATS)]
        setup = setups[-1]
        if any(s.references != setup.references for s in setups):
            result.lines.append("problem set-up: reference fronts differ between set-ups")
            result.failed += 1
        tracer = Tracer() if trace else None
        loop = Loop(workload, setup, tracer, result)
        if tracer is None:
            loop.until(seconds, alternate=False)
        else:
            with tracer.installed():
                loop.until(seconds, alternate=True)
                loop.one_pass("alloc")
            _write_spans(root, workload, seed, tracer)
    for index, record in enumerate(loop.first_records):
        if loop.op_counts:
            record = dict(record, counts=loop.op_counts[index])
        result.lines.append(f"det {json.dumps(record, sort_keys=True)}")

    m = result.metrics
    if not trace:
        m["setup_s"] = statistics.median(s.seconds for s in setups)
        # Mean pass time: machine speed here shifts between levels for tens
        # of seconds, and the mean of a run spreads less than its median.
        m["wall_s"] = statistics.fmean(loop.walls["plain"])
        result.notes["wall_s"] = f"(passes={len(loop.walls['plain'])})"
        refs = loop.ref_seconds
        m["ref_s"] = statistics.median(refs)
        m["wall_rel"] = statistics.fmean(
            wall / ((before + after) / 2)
            for wall, before, after in zip(loop.walls["plain"], refs, refs[1:])
        )
        m["op_s_p50"] = statistics.median(loop.op_seconds)
        result.notes["op_s_p50"] = f"(n={len(loop.op_seconds)})"
        if len(loop.op_seconds) >= P90_MIN_SAMPLES:
            m["op_s_p90"] = statistics.quantiles(loop.op_seconds, n=10)[8]
            result.notes["op_s_p90"] = f"(n={len(loop.op_seconds)})"
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        m["failed_frac"] = result.failed / max(result.attempted, 1)
        ratios = [r for r in loop.first_records if "ratio_c" in r]
        if ratios:
            worst_c = max(Fraction(r["ratio_c"]) for r in ratios)
            worst_l = max(Fraction(r["ratio_l"]) for r in ratios)
            m["ratio_c_max"] = float(worst_c)
            m["ratio_l_max"] = float(worst_l)
            result.notes["ratio_c_max"] = f"(= {worst_c})"
            result.notes["ratio_l_max"] = f"(= {worst_l})"
        return result

    m["bench.generate_s"] = statistics.median(s.generate_s for s in setups)
    traced = [tracer.pass_seconds(p) for p in loop.passes_of("traced")]
    for name in SPAN_METRICS:  # only layers that ran
        if any(name in t for t in traced):
            m[f"{name}_s"] = statistics.median(t.get(name, 0.0) for t in traced)
    counts = loop.counts or {}
    for name in COUNT_METRICS:
        m[name] = counts.get(name, 0)
    children = counts.get("exact.children", 0)
    m["exact.keep_ratio"] = counts.get("exact.kept_after_root", 0) / children if children else 0.0
    if children:
        m["exact.children_per_s"] = children / m["exact.solve_s"]
    m["exact.peak_alloc_mb"] = tracer.peak_mb.get("exact", 0.0)
    m["fptas.peak_alloc_mb"] = tracer.peak_mb.get("fptas", 0.0)
    m["io.bytes_out"] = sum(r.get("bytes_out", 0) for r in loop.first_records)
    plain = statistics.fmean(loop.walls["plain"])
    m["trace.overhead_pct"] = 100.0 * (statistics.fmean(loop.walls["traced"]) / plain - 1.0)
    return result


class Loop:
    """Runs passes over the workload's operations and checks each one.

    A pass is "plain", "traced" (spans and counts), "alloc" (traced, with
    tracemalloc around solver calls) or "warmup" (plain); the times of the
    last two are not used.
    """

    def __init__(
        self, workload: Workload, setup: Setup, tracer: Optional[Tracer], result: Result
    ) -> None:
        self.workload = workload
        self.setup = setup
        self.tracer = tracer
        self.result = result
        self.kinds: list[str] = []
        self.walls: dict[str, list[float]] = {"plain": [], "traced": [], "alloc": [], "warmup": []}
        self.op_seconds: list[float] = []
        self.ref_seconds: list[float] = []  # reference kernel, around plain passes
        self.first_records: list[dict] = []
        self.counts: Optional[dict[str, float]] = None
        self.op_counts: list[dict[str, float]] = []

    def passes_of(self, kind: str) -> list[int]:
        return [p for p, k in enumerate(self.kinds) if k == kind]

    def until(self, seconds: float, alternate: bool) -> None:
        """Passes while the next one, at the mean pass time so far, would
        end within `seconds`; at least one pass runs.  With `alternate`, a
        warm-up pass comes first (the cold first pass would bias the
        comparison), then plain and traced passes take turns and at least
        one of each runs.  Without `alternate`, the reference kernel runs
        before the first pass and after each pass."""
        start = perf_counter()
        if not alternate:
            self.ref_seconds.append(reference_kernel())
        while True:
            if not alternate:
                kind = "plain"
            elif not self.kinds:
                kind = "warmup"
            else:
                kind = "plain" if len(self.kinds) % 2 else "traced"
            self.one_pass(kind)
            if not alternate:
                self.ref_seconds.append(reference_kernel())
            elapsed = perf_counter() - start
            if alternate and not self.walls["traced"]:
                continue
            if elapsed * (len(self.kinds) + 1) / len(self.kinds) > seconds:
                return

    def one_pass(self, kind: str) -> None:
        pass_no = len(self.kinds)
        self.kinds.append(kind)
        tracer = self.tracer if kind in ("traced", "alloc") else None
        if tracer is not None:
            tracer.begin_pass(pass_no, measure_alloc=kind == "alloc")
        outcomes = []
        start = perf_counter()
        for op in self.setup.ops:
            outcomes.append(execute(op, tracer))
        self.walls[kind].append(perf_counter() - start)
        if kind == "plain":
            self.op_seconds.extend(o.seconds for o in outcomes)
        self._check(pass_no, outcomes, tracer)

    def _check(self, pass_no: int, outcomes: list[Outcome], tracer: Optional[Tracer]) -> None:
        setup, result = self.setup, self.result
        records = []
        for op, outcome in zip(setup.ops, outcomes):
            reference = setup.references[op.instance] if setup.references else None
            inst = setup.instances[op.instance]
            problems, record = check(self.workload, op, outcome, inst, reference)
            records.append(record)
            if pass_no and not problems and record != self.first_records[len(records) - 1]:
                problems.append("output differs from the first pass")
            result.attempted += 1
            if problems:
                result.failed += 1
                result.lines.extend(f"problem pass {pass_no} {op.name}: {p}" for p in problems)
        if not pass_no:
            self.first_records = records
        if tracer is None:
            return
        counts = tracer.pass_counts()
        if self.counts is None:
            self.counts = counts
            self.op_counts = [dict(tracer.counts.get(op.name, {})) for op in setup.ops]
        elif counts != self.counts:
            result.failed += 1
            result.lines.append(
                f"problem pass {pass_no}: work counts differ from the first traced pass"
            )


def _write_spans(root: Path, workload: Workload, seed: int, tracer: Tracer) -> None:
    out = root / ".perfbench-out"
    out.mkdir(exist_ok=True)
    spans = [asdict(span) for span in tracer.spans]
    (out / f"spans-{workload.name}-seed{seed}.json").write_text(json.dumps(spans))
