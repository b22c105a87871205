"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

* determinism: two traced runs with one seed print byte-identical ``det``
  lines, and another seed changes them;
* fault injection: a corrupted front point, a witness with one machine
  flipped and a verify FAIL line each count as a failed operation;
* catalogue: BENCHMARK.json, metrics.json and the workload table agree.

Exits 0 when every test passes, 1 otherwise.
"""

import json
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import runner  # noqa: E402
from bipareto import GenSpec, evaluate_schedule, generate_instance, io, solve_fptas  # noqa: E402
from workloads import DP_REFERENCE_EPS, VERIFY_EPS, WORKLOADS, Op, write_instances  # noqa: E402

DET_WORKLOAD = "fptas-grid"


def _det_lines(seed: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", DET_WORKLOAD,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = [line for line in proc.stdout.splitlines() if line.startswith("det ")]
    assert lines and all('"counts"' in line for line in lines), "traced det lines carry counts"
    return lines


def test_deterministic_block():
    first, second, other = _det_lines(7), _det_lines(7), _det_lines(8)
    assert first == second, "same seed, different det lines"
    assert first != other, "a different seed left the det lines unchanged"


def _one_op_loop(kind: str, work: Path):
    """A loop over a single small instance, as the benchmark builds it."""
    workload = next(w for w in WORKLOADS.values() if w.kind == kind)
    spec = GenSpec((8, 8), (1, 20), (1, 20), 5, 1)
    (path,) = write_instances([generate_instance(spec, 0)], work, 5)
    inst = io.load_instance(path)
    if kind == "verify":
        argv = ("verify", "--input-path", str(path), "--epsilon", str(VERIFY_EPS))
        op = Op("verify", 0, argv, VERIFY_EPS, None, None)
        references = None
    else:
        front = work / "front.csv"
        argv = ("solve", "--input-path", str(path), "--algo", "dp",
                "--out-path", str(front), "--schedules")
        op = Op("dp", 0, argv, None, front, front.with_suffix(".schedules.csv"))
        references = [solve_fptas(inst, DP_REFERENCE_EPS).front]
    setup = runner.Setup([inst], [op], references, 0.0, 0.0)
    return runner.Loop(workload, setup, None, runner.Result()), op, inst


def _failures(loop, outcome) -> int:
    """Failed-operation count after checking one outcome as pass 0."""
    before = loop.result.failed
    loop._check(0, [outcome], None)
    return loop.result.failed - before


def test_gate_counts_corrupted_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        loop, op, inst = _one_op_loop("dp", Path(tmp))
        outcome = runner.execute(op, None)
        assert _failures(loop, outcome) == 0, loop.result.lines

        good_front = op.front_path.read_text()
        header, first, *rest = good_front.splitlines()
        cmax, lmax = (int(v) for v in first.split(","))
        op.front_path.write_text("\n".join([header, f"{cmax},{lmax - 1}", *rest]) + "\n")
        assert _failures(loop, outcome) == 1, "corrupted front point not counted"
        op.front_path.write_text(good_front)

        good_schedules = op.schedules_path.read_text()
        machines = io.parse_schedules_csv(good_schedules)[0]
        point = io.parse_front_csv(good_front)[0]
        for job_id in sorted(machines):
            flipped = dict(machines)
            flipped[job_id] = 3 - machines[job_id]
            if evaluate_schedule(inst, io.assignment_to_flags(inst, flipped)) != point:
                break
        else:
            raise AssertionError("no single flip changes the witness's objectives")
        line = f"0,{job_id},{machines[job_id]}"
        assert line in good_schedules.splitlines()
        op.schedules_path.write_text(
            good_schedules.replace(f"\n{line}\n", f"\n0,{job_id},{flipped[job_id]}\n", 1)
        )
        assert _failures(loop, outcome) == 1, "witness with a flipped machine not counted"


def test_gate_counts_verify_fail():
    with tempfile.TemporaryDirectory() as tmp:
        loop, op, _ = _one_op_loop("verify", Path(tmp))
        outcome = runner.execute(op, None)
        assert _failures(loop, outcome) == 0, loop.result.lines
        outcome.stdout = outcome.stdout.replace("PASS coverage", "FAIL coverage")
        assert _failures(loop, outcome) == 1, "verify FAIL line not counted"


def test_catalogue_matches_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((HERE / "metrics.json").read_text())["metrics"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        for metric in contract[section]:
            entry = catalogue[metric["name"]]
            assert entry["in"] == section, metric["name"]
            same = (entry["unit"], entry["better"]) == (metric["unit"], metric["better"])
            assert same, metric["name"]
    listed = {m["name"] for s in ("end_to_end", "per_layer") for m in contract[s]}
    unlisted = {name for name, entry in catalogue.items() if entry["in"] != "printed"} - listed
    assert not unlisted, f"catalogue metrics missing from BENCHMARK.json: {unlisted}"


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
        else:
            print(f"PASS {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
