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
point, in job-id order, with 0-based point indices and machines numbered
1 and 2.  The solvers' schedules are flag tuples over solver order; this
module alone maps positions to job ids and flags to machines (machine 1
is flag 1, machine 2 flag 0).
"""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .model import Front, Instance, ParetoPoint, normalize

PathLike = Union[str, Path]

FRONT_HEADER = "cmax,lmax"
SCHEDULES_HEADER = "point_index,job_id,machine"
_COUNTS = {2: "two", 3: "three"}


def _data_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((lineno, line))
    return out


def _int_rows(
    lines: Iterable[tuple[int, str]], fields: str, sep: Optional[str]
) -> Iterator[tuple[int, list[int]]]:
    """``(lineno, values)`` per data line holding the integers named by
    ``fields``, split on ``sep`` (None: whitespace)."""
    width = len(fields.split(sep))
    for lineno, line in lines:
        parts = line.split(sep)
        if len(parts) != width:
            raise ValueError(f"line {lineno}: expected {fields!r}, got {line!r}")
        try:
            values = [int(part) for part in parts]
        except ValueError:
            raise ValueError(
                f"line {lineno}: expected {_COUNTS[width]} integers, got {line!r}"
            ) from None
        yield lineno, values


def _csv_rows(text: str, header: str, kind: str) -> Iterator[tuple[int, list[int]]]:
    """Rows of a CSV whose first data line is ``header``, which also names
    the integer fields of every later line."""
    lines = _data_lines(text)
    if not lines or lines[0][1] != header:
        raise ValueError(f"{kind} CSV must start with header {header!r}")
    return _int_rows(lines[1:], header, ",")


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
    raw_jobs = [values for _, values in _int_rows(lines[1:], "p q", None)]
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


def write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` in place, like `Path.write_text`.

    An existing file keeps its inode and mode, and links to it are
    followed, but it is not emptied first: the new bytes go over the old
    ones and a regular file is then cut to their length.  ext4
    (``auto_da_alloc``) flushes a file on close after a truncate to zero
    and on a rename over it, which turned each rewrite into a disk wait.
    Other files (``/dev/null``, a pipe, a terminal) are written, not cut.
    A write that fails or is interrupted still cuts the file where it
    stopped, so it leaves a prefix of ``text`` and none of the old bytes.
    Nothing is fsync'd.
    """
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb", buffering=0) as file:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        written = 0
        try:
            while written < len(data):
                written += file.write(data[written:])
        finally:
            if regular:
                file.truncate(written)


def load_instance(path: PathLike) -> Instance:
    return parse_instance(Path(path).read_text())


def save_instance(inst: Instance, path: PathLike, header: Sequence[str] = ()) -> None:
    write_text(path, format_instance(inst, header))


def format_front_csv(front: Front) -> str:
    rows = [FRONT_HEADER]
    rows.extend(f"{pt.cmax},{pt.lmax}" for pt in front)
    return "\n".join(rows) + "\n"


def parse_front_csv(text: str) -> Front:
    rows = _csv_rows(text, FRONT_HEADER, "front")
    return Front(tuple(ParetoPoint(*values) for _, values in rows))


def format_schedules_csv(inst: Instance, schedules: Iterable[Sequence[int]]) -> str:
    """One row per (front point, job), jobs in id order.

    ``schedules`` are flag tuples over the instance's sorted order
    (``flags[k]`` is the flag of ``inst.jobs[k]``); machine 1 is flag 1,
    machine 2 flag 0.
    """
    by_id = sorted(range(inst.n), key=lambda k: inst.jobs[k].id)
    rows = [SCHEDULES_HEADER]
    for index, flags in enumerate(schedules):
        for k in by_id:
            rows.append(f"{index},{inst.jobs[k].id},{1 if flags[k] == 1 else 2}")
    return "\n".join(rows) + "\n"


def parse_schedules_csv(text: str) -> dict[int, dict[int, int]]:
    """Map point_index -> {job_id: machine} from schedule CSV text."""
    out: dict[int, dict[int, int]] = {}
    for lineno, (index, job_id, machine) in _csv_rows(text, SCHEDULES_HEADER, "schedules"):
        if machine not in (1, 2):
            raise ValueError(f"line {lineno}: machine must be 1 or 2, got {machine}")
        if job_id in out.setdefault(index, {}):
            raise ValueError(f"line {lineno}: duplicate job {job_id} for point {index}")
        out[index][job_id] = machine
    return out


def save_schedules_csv(
    inst: Instance, schedules: Iterable[Sequence[int]], path: PathLike
) -> None:
    write_text(path, format_schedules_csv(inst, schedules))


def assignment_to_flags(inst: Instance, machines: Mapping[int, int]) -> list[int]:
    """Positional flags over solver order from a {job_id: machine} map."""
    missing = [job.id for job in inst.jobs if job.id not in machines]
    if missing:
        raise ValueError(f"assignment missing jobs {missing}")
    extra = set(machines) - {job.id for job in inst.jobs}
    if extra:
        raise ValueError(f"assignment names unknown jobs {sorted(extra)}")
    return [1 if machines[job.id] == 1 else 0 for job in inst.jobs]
