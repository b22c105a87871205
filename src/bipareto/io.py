"""Text formats: instance files, front CSVs, and schedule CSVs.

Instance files are line oriented.  Lines that are blank or start with
``#`` are ignored; the first data line holds n and the next n data lines
hold one ``p q`` pair each.  Serialization is canonical: jobs are
written in solver order (non-increasing delivery time, ties by original
position).  Parsing numbers jobs by file position, so one parse/format
round trip reaches the canonical form and is the identity from then on;
the (p, q) sequence and all derived quantities never change.

Front CSVs carry ``cmax,lmax`` rows in increasing cmax order.  Schedule
CSVs carry one ``point_index,job_id,machine`` row per job per front
point, with 0-based point indices and machines numbered 1 and 2.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .model import Front, Instance, ParetoPoint, Schedule, normalize

PathLike = Union[str, Path]

FRONT_HEADER = "cmax,lmax"
SCHEDULES_HEADER = "point_index,job_id,machine"


def _data_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


def parse_instance(text: str) -> Instance:
    """Parse instance text; raises ValueError with a line reference."""
    lines = _data_lines(text)
    if not lines:
        raise ValueError("instance text has no data lines")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"line {lineno}: expected job count, got {head!r}") from None
    if n < 1:
        raise ValueError(f"line {lineno}: job count must be >= 1, got {n}")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} job lines, found {len(lines) - 1}")
    raw_jobs = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'p q', got {line!r}")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}") from None
        raw_jobs.append((p, q))
    try:
        return normalize(raw_jobs)
    except ValueError as exc:
        raise ValueError(f"invalid instance: {exc}") from None


def format_instance(inst: Instance, header: Sequence[str] = ()) -> str:
    """Canonical instance text, optionally preceded by comment lines."""
    out = [f"# {line}" for line in header]
    out.append(str(inst.n))
    out.extend(f"{job.p} {job.q}" for job in inst.jobs)
    return "\n".join(out) + "\n"


def load_instance(path: PathLike) -> Instance:
    return parse_instance(Path(path).read_text())


def save_instance(inst: Instance, path: PathLike, header: Sequence[str] = ()) -> None:
    Path(path).write_text(format_instance(inst, header))


def format_front_csv(front: Front) -> str:
    rows = [FRONT_HEADER]
    rows.extend(f"{pt.cmax},{pt.lmax}" for pt in front)
    return "\n".join(rows) + "\n"


def parse_front_csv(text: str) -> Front:
    lines = _data_lines(text)
    if not lines or lines[0][1] != FRONT_HEADER:
        raise ValueError(f"front CSV must start with header {FRONT_HEADER!r}")
    points = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'cmax,lmax', got {line!r}")
        try:
            points.append(ParetoPoint(int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}") from None
    return Front(tuple(points))


def format_schedules_csv(schedules: Iterable[Schedule]) -> str:
    """One row per (front point, job); machine 1 is flag 1, machine 2 flag 0."""
    rows = [SCHEDULES_HEADER]
    for index, sched in enumerate(schedules):
        for job_id in sorted(sched.assignment):
            machine = 1 if sched.assignment[job_id] == 1 else 2
            rows.append(f"{index},{job_id},{machine}")
    return "\n".join(rows) + "\n"


def parse_schedules_csv(text: str) -> dict[int, dict[int, int]]:
    """Map point_index -> {job_id: machine} from schedule CSV text."""
    lines = _data_lines(text)
    if not lines or lines[0][1] != SCHEDULES_HEADER:
        raise ValueError(f"schedules CSV must start with header {SCHEDULES_HEADER!r}")
    out: dict[int, dict[int, int]] = {}
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(
                f"line {lineno}: expected 'point_index,job_id,machine', got {line!r}"
            )
        try:
            index, job_id, machine = (int(part) for part in parts)
        except ValueError:
            raise ValueError(f"line {lineno}: expected three integers, got {line!r}") from None
        if machine not in (1, 2):
            raise ValueError(f"line {lineno}: machine must be 1 or 2, got {machine}")
        if job_id in out.setdefault(index, {}):
            raise ValueError(f"line {lineno}: duplicate job {job_id} for point {index}")
        out[index][job_id] = machine
    return out


def save_schedules_csv(schedules: Iterable[Schedule], path: PathLike) -> None:
    Path(path).write_text(format_schedules_csv(schedules))


def assignment_to_flags(inst: Instance, machines: Mapping[int, int]) -> list[int]:
    """Positional flags over solver order from a {job_id: machine} map."""
    missing = [job.id for job in inst.jobs if job.id not in machines]
    if missing:
        raise ValueError(f"assignment missing jobs {missing}")
    extra = set(machines) - {job.id for job in inst.jobs}
    if extra:
        raise ValueError(f"assignment names unknown jobs {sorted(extra)}")
    return [1 if machines[job.id] == 1 else 0 for job in inst.jobs]
