"""Solve -d/dx(a(x) du/dx) = f on (0,1) with Dirichlet boundaries.

Walks through the pieces once: build the problem (the finite-difference
matrix, split into the structured band plus a sparse correction), build the
multigrid hierarchy, and solve.  The iteration count stays flat as the
grid is refined -- that is the point of the method.
"""

import numpy as np

from wlmg import (BoundaryCondition, GridSpec, SolverConfig, build_hierarchy,
                  build_problem, build_rhs, solve)

for n in (63, 127, 255, 511):
    grid = GridSpec((n,), BoundaryCondition.DIRICHLET)

    # a(x) = e^x + 1: smooth, bounded away from zero
    problem = build_problem(grid, "a3")
    print(f"n={n:4d}  a_min={problem.a_min:.4f}  "
          f"correction nnz={sum(map(np.count_nonzero, problem.correction.values()))}")

    config = SolverConfig(method="mgm", pre="gauss-seidel", post="richardson",
                          richardson_scaling="diagonal")
    hierarchy = build_hierarchy(problem, config)
    print(f"        level sizes: {[lev.sizes[0] for lev in hierarchy.levels]}")

    b = build_rhs(grid, "ones")
    x, report = solve(hierarchy, b)
    print(f"        iterations={report.iterations}  "
          f"residual={report.final_residual:.2e}  "
          f"ops/iter={report.operations // report.iterations}")

    # sanity: the discrete solution of -(a u')' = 1 is positive and smooth
    assert report.converged and x.min() > 0
