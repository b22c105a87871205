"""The benchmark workloads: seeded instance sets and the operations on them.

A workload is a fixed list of instance families.  The seed changes the
values drawn by `bipareto.bench.generate_instance`, never the shape of
the set (job counts, value ranges, how many instances of each), so every
seed asks for about the same amount of work.  Each operation is one
`bipareto solve` or `bipareto verify` command line on one instance file.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from bipareto import GenSpec, generate_instance, io, solve_exact, solve_fptas
from bipareto.model import Front, Instance, ParetoPoint

# Epsilon of the trimmed front that cross-checks every exact `dp-dense`
# front: cheap to compute, and any of its points dominating an exact point
# would prove the exact front wrong.
DP_REFERENCE_EPS = Fraction(9, 10)
VERIFY_EPS = Fraction(3, 10)


@dataclass(frozen=True)
class Family:
    n: int
    p: tuple[int, int]
    q: tuple[int, int]
    count: int


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in BENCHMARK.json."""

    name: str
    # "dp" and "fptas" run `bipareto solve --algo <kind> --schedules`;
    # "verify" runs `bipareto verify`.
    kind: str
    families: tuple[Family, ...]
    epsilons: tuple[Fraction, ...] = ()


CRITERION6_Q = (1, 1000)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dp-dense",
            "dp",
            (Family(200, (1, 100), CRITERION6_Q, 1), Family(200, (1, 1000), CRITERION6_Q, 2)),
        ),
        Workload(
            "fptas-grid",
            "fptas",
            # p 1:100 only: at p 1:1000 the trimmed solves take a few per
            # cent of a pass, while each exact reference front costs ~3 s
            # in every set-up.
            (Family(200, (1, 100), CRITERION6_Q, 4),),
            (Fraction(3, 10), Fraction(9, 10)),
        ),
        Workload(
            "verify",
            "verify",
            # One n=60 instance above the oracle cap (keep_layers exact solve
            # and per-layer closeness check dominate, memory peaks), then
            # n 12..16 with p up to 1e12, where every load is distinct and
            # the oracle runs.  Half as many instances per extra job: each
            # job count costs about the same per pass, and most commands
            # are short.  The n=60 loads are drawn from 250:750, not 1:1000:
            # the same mean load, but the state count (which grows faster
            # than P) spreads half as much from seed to seed.
            (Family(60, (250, 750), (1, 1000), 1),)
            + tuple(Family(n, (1, 10**12), (1, 10**6), 2 ** (16 - n)) for n in range(12, 17)),
            (VERIFY_EPS,),
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One command line of the timed loop."""

    name: str
    instance: int  # position in the workload's instance list
    argv: tuple[str, ...]
    eps: Optional[Fraction]
    front_path: Optional[Path]
    schedules_path: Optional[Path]


def generate(workload: Workload, seed: int) -> list[Instance]:
    """The workload's instances for ``seed``; indices run across families."""
    instances = []
    for family in workload.families:
        spec = GenSpec((family.n, family.n), family.p, family.q, seed, family.count)
        for _ in range(family.count):
            instances.append(generate_instance(spec, len(instances)))
    return instances


def write_instances(instances: list[Instance], work: Path, seed: int) -> list[Path]:
    paths = []
    for index, inst in enumerate(instances):
        path = work / f"inst{index:03d}.txt"
        io.save_instance(inst, path, (f"perfbench seed {seed} index {index}",))
        paths.append(path)
    return paths


def operations(workload: Workload, paths: list[Path], work: Path) -> list[Op]:
    ops = []
    for index, path in enumerate(paths):
        if workload.kind == "verify":
            for eps in workload.epsilons:
                ops.append(
                    Op(
                        f"i{index:03d}.verify.{eps}",
                        index,
                        ("verify", "--input-path", str(path), "--epsilon", str(eps)),
                        eps,
                        None,
                        None,
                    )
                )
            continue
        for eps in workload.epsilons or (None,):
            tag = f"i{index:03d}.{workload.kind}" + (f".{eps}" if eps else "")
            front = work / f"{tag.replace('/', '_')}.csv"
            argv = ["solve", "--input-path", str(path), "--algo", workload.kind]
            if eps is not None:
                argv += ["--epsilon", str(eps)]
            argv += ["--out-path", str(front), "--schedules"]
            ops.append(
                Op(tag, index, tuple(argv), eps, front, front.with_suffix(".schedules.csv"))
            )
    return ops


def reference_fronts(kind: str, paths: list[str]) -> list[tuple[tuple[int, int], ...]]:
    """Fronts the output checks compare against, one per instance file.

    For "dp" operations: the trimmed front at DP_REFERENCE_EPS.  For
    "fptas" operations: the exact front.  Runs in a separate process so
    that the reference solves do not raise the benchmark's peak RSS.
    """
    fronts = []
    for path in paths:
        inst = io.load_instance(path)
        if kind == "dp":
            front = solve_fptas(inst, DP_REFERENCE_EPS).front
        else:
            front = solve_exact(inst).front
        fronts.append(tuple(tuple(pt) for pt in front))
    return fronts


def as_front(points: tuple[tuple[int, int], ...]) -> Front:
    return Front(tuple(ParetoPoint(c, l) for c, l in points))
