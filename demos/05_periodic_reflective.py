"""Periodic and reflective boundaries: circulant and DCT-III splittings.

With these boundary rules the constant-coefficient operator is singular
(the all-ones vector is in its kernel), so the structured part carries a
rank-one Strang correction and the solved operator is positive definite.
The V-cycle behaves exactly as in the Dirichlet case.
"""

from wlmg import (BoundaryCondition, GridSpec, SolverConfig, build_hierarchy,
                  build_problem, build_rhs, solve)

config = SolverConfig(method="mgm", pre="gauss-seidel", post="richardson",
                      richardson_scaling="diagonal")

for bc in (BoundaryCondition.PERIODIC, BoundaryCondition.REFLECTIVE):
    print(f"\n{bc.value}:")
    for coeff in ("a1", "a2", "a3"):
        counts = []
        for n in (32, 64, 128, 256):
            grid = GridSpec((n,), bc)
            problem = build_problem(grid, coeff)
            H = build_hierarchy(problem, config)
            b = build_rhs(grid, "random", seed=0)
            _, rep = solve(H, b)
            assert rep.converged
            counts.append(rep.iterations)
        gamma = problem.structured.rank_one
        print(f"  {coeff}: iterations {counts} over n=32..256 "
              f"(Strang gamma at n=256: {gamma:.3e})")
