"""Layer-by-layer view of trimming error.

Streams both solvers' layers, prints how many states each keeps per
layer, and verifies the invariant that makes the coverage guarantee
work: after i jobs, every exact state has a trimmed state at most
(i-1)*delta1 away in load and at most (i-1)*delta1 above in lateness.
"""

from fractions import Fraction

from bipareto import (
    GenSpec,
    box_index,
    exact_layers,
    find_closeness_violation,
    generate_instance,
    grid_params,
    solve_exact,
    solve_fptas,
    trimmed_layers,
)

inst = generate_instance(GenSpec((40, 40), (1, 60), (1, 60), 11, 1), 0)
eps = Fraction(1, 2)

grid = grid_params(inst, eps)
print(f"instance: n={inst.n}, P={inst.total_p}, q_max={inst.q_max}, eps={eps}")
print(f"load box width: delta1={grid.delta1}")

# Trimming keeps one state per load box, so no trimmed layer is wider.
boxes = box_index(grid.cmax_bound, grid.delta1) + 1
print(f"load boxes available: {boxes}")

# The streams build each solver's layers one at a time, keeping none.
print("\nlayer   exact states   trimmed states")
step = max(1, inst.n // 10)
for ex, ap in zip(exact_layers(inst), trimmed_layers(inst, eps)):
    if (ex.i - 1) % step == 0 or ex.i == inst.n:
        print(f"{ex.i:5d}  {len(ex):13d}  {len(ap):15d}")

# find_closeness_violation checks every exact state in every layer for a
# trimmed state inside its drift window, one vectorized pass per pair of
# layers as the two streams yield them, and returns the first
# counterexample, if any.
assert find_closeness_violation(exact_layers(inst), trimmed_layers(inst, eps), grid) is None
print(f"\ndrift bound (i-1)*delta1 on load and lateness holds in all {inst.n} layers")
exact, approx = solve_exact(inst), solve_fptas(inst, eps)
print(f"exact front {len(exact.front.points)} points, "
      f"trimmed front {len(approx.front.points)} points")
