"""Layer-by-layer view of trimming error.

Runs both solvers with layer retention on, prints how many states each
keeps per layer, and verifies the invariant that makes the coverage
guarantee work: after i jobs, every exact state has a trimmed state at
most (i-1)*delta1 away in load and at most (i-1)*delta1 above in
lateness.
"""

from fractions import Fraction

from bipareto import (
    GenSpec,
    box_index,
    find_closeness_violation,
    generate_instance,
    grid_params,
    solve_exact,
    solve_fptas,
)

inst = generate_instance(GenSpec((40, 40), (1, 60), (1, 60), 11, 1), 0)
eps = Fraction(1, 2)

grid = grid_params(inst, eps)
print(f"instance: n={inst.n}, P={inst.total_p}, q_max={inst.q_max}, eps={eps}")
print(f"load box width: delta1={grid.delta1}")

# Trimming keeps one state per load box, so no trimmed layer is wider.
boxes = box_index(grid.cmax_bound, grid.delta1) + 1
print(f"load boxes available: {boxes}")

exact = solve_exact(inst, keep_layers=True)
approx = solve_fptas(inst, eps, keep_layers=True)

print("\nlayer   exact states   trimmed states")
step = max(1, inst.n // 10)
for i in range(0, inst.n, step):
    ex, ap = exact.layers[i], approx.layers[i]
    print(f"{ex.i:5d}  {len(ex):13d}  {len(ap):15d}")
ex, ap = exact.layers[-1], approx.layers[-1]
print(f"{ex.i:5d}  {len(ex):13d}  {len(ap):15d}")

# find_closeness_violation checks every exact state in every layer for a
# trimmed state inside its drift window, one vectorized pass per layer,
# and returns the first counterexample, if any.
assert find_closeness_violation(exact.layers, approx.layers, grid) is None
print(f"\ndrift bound (i-1)*delta1 on load and lateness holds in all {inst.n} layers")
print(f"exact front {len(exact.front.points)} points, "
      f"trimmed front {len(approx.front.points)} points")
