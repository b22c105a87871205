"""Exact bi-objective front for a small two-machine instance.

Walks through the core workflow: normalize a job list, solve for the
exact (makespan, max lateness) Pareto front, inspect the reconstructed
schedules, and confirm the result against brute-force enumeration.
"""

from bipareto import evaluate_schedule, normalize, solve_exact
from bipareto.oracle import enumerate_front

# Three jobs as (processing time, delivery time).  normalize() assigns
# ids by position and reorders internally by non-increasing q.
inst = normalize([(2, 5), (3, 4), (4, 1)])
print("instance:")
for job in inst.jobs:
    print(f"  job {job.id}: p={job.p} q={job.q}")
print(f"total work P={inst.total_p}, largest delivery q_max={inst.q_max}")

result = solve_exact(inst)
print("\nexact Pareto front (makespan, max lateness):")
for point in result.front:
    print(f"  C_max={point.cmax}  L_max={point.lmax}")

# Every front point comes with a schedule that achieves it: a tuple of
# machine flags, positional over inst.jobs, with flag 1 as machine 1;
# evaluate_schedule recomputes the objectives from scratch.
print("\nschedules behind the front:")
for point, sched in zip(result.front, result.schedules):
    m1 = [job.id for job, flag in zip(inst.jobs, sched) if flag == 1]
    m2 = [job.id for job, flag in zip(inst.jobs, sched) if flag == 0]
    check = evaluate_schedule(inst, sched)
    assert check == point
    print(f"  ({point.cmax}, {point.lmax}): machine 1 runs {m1}, machine 2 runs {m2}")

# The dynamic program keeps one state per load and layer; layer_sizes
# records how many states survived after each job.
print(f"\nstates kept per layer: {list(result.layer_sizes)}")

# For n this small the full 2^(n-1) assignment enumeration is instant
# and must produce the identical front.
oracle = enumerate_front(inst)
assert oracle.points == result.front.points
print(f"brute-force oracle agrees: {[(p.cmax, p.lmax) for p in oracle]}")
