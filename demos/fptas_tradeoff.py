"""Accuracy/speed trade-off of the trimmed solver.

Solves one mid-sized instance exactly, then approximately at a sweep of
epsilon values, and reports front size, peak state count, runtime, and
the verified coverage guarantee for each run.
"""

import time
from fractions import Fraction

import numpy as np

from bipareto import (
    GenSpec,
    coverage_check,
    exact_layers,
    generate_instance,
    quality_metrics,
    solve_exact,
    solve_fptas,
    trimmed_layers,
)

# One reproducible random instance: 120 jobs, wide value ranges so the
# exact state space is large enough for trimming to matter.
inst = generate_instance(GenSpec((120, 120), (1, 500), (1, 500), 20, 1), 0)
print(f"instance: n={inst.n}, P={inst.total_p}, q_max={inst.q_max}")

start = time.perf_counter()
exact = solve_exact(inst)
exact_s = time.perf_counter() - start
print(
    f"\nexact:        {len(exact.front.points):4d} points, "
    f"peak layer {max(exact.layer_sizes):7d} states, {exact_s * 1000:7.1f} ms"
)

# Smaller epsilon -> finer grid -> more states kept -> closer front.
# coverage_check verifies the (1+eps) guarantee with exact rational
# arithmetic: every exact point has an approximate point with
# C# <= (1+eps)*C and L# <= L.  Observed ratios usually sit far below
# the worst-case bound.
print("\neps     points  peak states      ms   ratio_c   ratio_l  covered")
for eps in (Fraction(1, 10), Fraction(3, 10), Fraction(9, 10), Fraction(2)):
    start = time.perf_counter()
    approx = solve_fptas(inst, eps)
    ms = (time.perf_counter() - start) * 1000
    ratio_c, ratio_l = quality_metrics(exact.front, approx.front)
    covered = coverage_check(exact.front, approx.front, eps)
    print(
        f"{str(eps):>5}  {len(approx.front.points):6d}  {max(approx.layer_sizes):11d}"
        f"  {ms:6.1f}  {float(ratio_c):8.4f}  {float(ratio_l):8.4f}  {covered}"
    )

# With eps small enough that the load box width delta1 falls below 1,
# every integer load is its own box: the exact solver is trimming with
# boxes of width 1, so the trimmed solver builds the exact solver's
# layers, state for state, and the approximate front is exact.  (This
# dense instance's exact layers come from the table over the flag-1
# load; they hold the same states.)
small = generate_instance(GenSpec((30, 30), (1, 50), (1, 50), 20, 1), 0)
tiny_eps = Fraction(1, small.total_p + small.q_max)
tiny, small_exact = solve_fptas(small, tiny_eps), solve_exact(small)
same_layers = all(
    np.array_equal(getattr(a, name), getattr(b, name))
    for a, b in zip(trimmed_layers(small, tiny_eps), exact_layers(small), strict=True)
    for name in ("lmax", "cmax")
)
print(f"\ndegenerate grid (delta1 < 1) reproduces the exact front: "
      f"{tiny.front.points == small_exact.front.points}, the exact layers: {same_layers}")
