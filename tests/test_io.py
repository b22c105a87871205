import os
import stat
import threading
from io import FileIO

import pytest

from bipareto import Front, ParetoPoint, evaluate_schedule, normalize, solve_exact
from bipareto import io as io_module
from bipareto.io import (
    assignment_to_flags,
    format_front_csv,
    format_instance,
    format_schedules_csv,
    load_instance,
    parse_front_csv,
    parse_instance,
    parse_schedules_csv,
    save_instance,
    write_text,
)
from conftest import make_instances

WORKED = [(2, 5), (3, 4), (4, 1)]


def test_instance_round_trip():
    # one parse/format application is the canonical fixed point; ids are
    # renumbered by file position, the (p, q) sequence never changes
    for inst in make_instances(3, 20, (1, 12)):
        once = parse_instance(format_instance(inst))
        assert [(j.p, j.q) for j in once.jobs] == [(j.p, j.q) for j in inst.jobs]
        assert (once.n, once.total_p, once.q_max) == (inst.n, inst.total_p, inst.q_max)
        assert once.prefix == inst.prefix
        assert parse_instance(format_instance(once)) == once
        assert format_instance(once) == format_instance(inst)


def test_parse_instance_ignores_comments_and_order():
    text = """
# any comment
3

4 1
2 5
# interleaved
3 4
"""
    inst = parse_instance(text)
    assert [(j.p, j.q) for j in inst.jobs] == [(2, 5), (3, 4), (4, 1)]
    # canonical serialization lists jobs in sorted order
    assert format_instance(inst) == "3\n2 5\n3 4\n4 1\n"
    assert format_instance(inst, ("note",)).startswith("# note\n3\n")


def test_parse_instance_errors():
    with pytest.raises(ValueError, match="no data"):
        parse_instance("# only comments\n")
    with pytest.raises(ValueError, match="job count"):
        parse_instance("x\n1 1\n")
    with pytest.raises(ValueError, match=">= 1"):
        parse_instance("0\n")
    with pytest.raises(ValueError, match="expected 2 job lines"):
        parse_instance("2\n1 1\n")
    with pytest.raises(ValueError, match="expected 1 job lines"):
        parse_instance("1\n1 1\n2 2\n")
    with pytest.raises(ValueError, match="'p q'"):
        parse_instance("1\n1 2 3\n")
    with pytest.raises(ValueError, match="two integers"):
        parse_instance("1\n1 x\n")
    with pytest.raises(ValueError, match="invalid instance"):
        parse_instance("1\n0 1\n")


def test_save_and_load(tmp_path):
    inst = normalize(WORKED)
    path = tmp_path / "inst.txt"
    save_instance(inst, path, header=("generated for tests",))
    assert load_instance(path) == inst


def test_write_text_rewrites_in_place(tmp_path):
    path = tmp_path / "out.csv"
    write_text(path, "a fairly long first text\n")
    path.chmod(0o640)
    before = path.stat()
    # shorter text leaves no stale tail, longer text is written whole
    for text in ("short\n", "x" * 10_000 + "\n", "mid\n"):
        write_text(path, text)
        assert path.read_text() == text
    after = path.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640


def test_write_text_follows_links(tmp_path):
    target = tmp_path / "target.csv"
    write_text(target, "old target text\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    hard = tmp_path / "hard.csv"
    os.link(target, hard)
    write_text(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == hard.read_text() == "new\n"


def test_write_text_to_a_pipe(tmp_path):
    # a pipe cannot be truncated: the text is written and nothing raises
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    write_text(pipe, "through a pipe\n")
    reader.join(timeout=10)
    assert got == ["through a pipe\n"]


def test_interrupted_write_text_leaves_no_old_bytes(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    write_text(path, "old text, longer than the new one\n")

    class Interrupted(FileIO):
        # writes four bytes, then is interrupted
        def write(self, data):
            if self.tell():
                raise KeyboardInterrupt
            return super().write(data[:4])

    monkeypatch.setattr(
        io_module, "open", lambda fd, *args, **kwargs: Interrupted(fd, "w"), raising=False
    )
    with pytest.raises(KeyboardInterrupt):
        write_text(path, "new text\n")
    assert path.read_text() == "new "


def test_front_csv_round_trip():
    front = Front((ParetoPoint(5, 9), ParetoPoint(6, 7)))
    text = format_front_csv(front)
    assert text == "cmax,lmax\n5,9\n6,7\n"
    assert parse_front_csv(text) == front
    assert parse_front_csv("cmax,lmax\n") == Front(())


def test_parse_front_csv_errors():
    with pytest.raises(ValueError, match="header"):
        parse_front_csv("c,l\n5,9\n")
    with pytest.raises(ValueError, match="two integers"):
        parse_front_csv("cmax,lmax\n5,x\n")
    with pytest.raises(ValueError, match="cmax,lmax"):
        parse_front_csv("cmax,lmax\n5\n")
    with pytest.raises(ValueError, match="not a Pareto front"):
        parse_front_csv("cmax,lmax\n5,9\n6,9\n")


def test_schedules_csv_round_trip():
    inst = normalize(WORKED)
    result = solve_exact(inst)
    text = format_schedules_csv(inst, result.schedules)
    assert text.splitlines()[0] == "point_index,job_id,machine"
    parsed = parse_schedules_csv(text)
    assert sorted(parsed) == list(range(len(result.front)))
    for index, point in enumerate(result.front):
        flags = assignment_to_flags(inst, parsed[index])
        assert evaluate_schedule(inst, flags) == point


def test_schedules_csv_maps_positions_to_job_ids():
    # input order differs from solver order: job 1 is sorted last
    inst = normalize([(4, 1), (2, 5), (3, 4)])
    result = solve_exact(inst)
    assert [job.id for job in inst.jobs] == [2, 3, 1]
    assert result.schedules == ((1, 1, 0), (1, 0, 1))
    assert format_schedules_csv(inst, result.schedules) == (
        "point_index,job_id,machine\n"
        "0,1,2\n0,2,1\n0,3,1\n"
        "1,1,1\n1,2,1\n1,3,2\n"
    )


def test_parse_schedules_csv_errors():
    with pytest.raises(ValueError, match="header"):
        parse_schedules_csv("a,b,c\n")
    with pytest.raises(ValueError, match="three integers"):
        parse_schedules_csv("point_index,job_id,machine\n0,1,x\n")
    with pytest.raises(ValueError, match="machine must be 1 or 2"):
        parse_schedules_csv("point_index,job_id,machine\n0,1,3\n")
    with pytest.raises(ValueError, match="duplicate job"):
        parse_schedules_csv("point_index,job_id,machine\n0,1,1\n0,1,2\n")


def test_assignment_to_flags_errors():
    inst = normalize(WORKED)
    assert assignment_to_flags(inst, {1: 1, 2: 2, 3: 1}) == [1, 0, 1]
    with pytest.raises(ValueError, match="missing jobs"):
        assignment_to_flags(inst, {1: 1, 2: 2})
    with pytest.raises(ValueError, match="unknown jobs"):
        assignment_to_flags(inst, {1: 1, 2: 2, 3: 1, 9: 1})
