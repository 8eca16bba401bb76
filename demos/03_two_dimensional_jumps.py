"""Two-dimensional problems with discontinuous coefficients.

The piecewise-constant presets jump by up to three orders of magnitude
across the quadrant interface.  Pure Richardson smoothing cannot handle
the middle frequencies these jumps create, while Gauss-Seidel and the
diagonally preconditioned CG step stay robust -- compare the counts.
"""

from wlmg import (BoundaryCondition, GridSpec, SolverConfig, build_hierarchy,
                  build_problem, build_rhs, solve)

n = 63
grid = GridSpec((n, n), BoundaryCondition.DIRICHLET)

for preset in ("a6", "a7", "a8"):           # delta = 10, 100, 1000
    problem = build_problem(grid, preset)
    b = build_rhs(grid, "random", seed=0)

    counts = {}
    for label, cfg in {
        "gauss-seidel + cg": SolverConfig(method="mgm", pre="gauss-seidel",
                                          post="cg", cg_preconditioner="diagonal"),
        "gauss-seidel + richardson": SolverConfig(method="mgm", pre="gauss-seidel",
                                                  post="richardson"),
        "richardson + cg": SolverConfig(method="mgm", pre="richardson",
                                        post="cg"),
    }.items():
        H = build_hierarchy(problem, cfg)
        _, rep = solve(H, b, max_iter=2000)
        counts[label] = rep.iterations if rep.converged else ">2000"
    print(f"{preset}: {counts}")
