"""Correctness checks applied to every solve the benchmark makes.

The checker assembles its own copy of the operator with
``wlmg.discretize.assemble`` (plus the ``a_min * gamma / N * e e^T`` term
that ``split`` adds on periodic and reflective grids) and never looks at the
solver's hierarchy.  A solve passes when

* the solver reports convergence and every entry of the iterate is finite;
* the recomputed relative residual is below the solver tolerance, up to the
  rounding of the two residual evaluations;
* on Dirichlet grids, the iterate agrees with a sparse direct reference
  solution (``scipy.sparse.linalg.splu``, factored once per checker).  Since
  ``A - a_min * M`` is positive semidefinite, ``||x - x_ref|| <=
  (||b - A x|| + ||b - A x_ref||) / (a_min * lambda_min(M))`` bounds the
  error, with ``lambda_min(M)`` the closed-form smallest eigenvalue of the
  tau Laplacian.  The bound follows from the residuals, so this check
  never rejects a solve the residual check accepts unless the residual
  evaluation itself is wrong; it confirms that evaluation with a direct
  solve that shares no code with the multigrid path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wlmg import discretize

EPS = np.finfo(float).eps


class SolutionChecker:
    def __init__(self, grid, coeff, problem, tol: float):
        self.tol = tol
        self.A = discretize.assemble(grid, coeff)
        gamma = problem.structured.rank_one
        self.rho = 0.0 if gamma is None else problem.a_min * gamma / grid.n_total
        # terms per row in a residual evaluation, for the rounding allowance
        row_nnz = int(np.diff(self.A.indptr).max())
        self.rounding = 2.0 * (row_nnz + 3) * EPS
        self.absA = abs(self.A)
        self.lu = None
        if grid.bc is discretize.BoundaryCondition.DIRICHLET:
            self.lu = spla.splu(sp.csc_matrix(self.A))
            self.lam_lower = problem.a_min * sum(
                2.0 - 2.0 * np.cos(np.pi / (n + 1)) for n in grid.sizes)
        self.max_ref_error = 0.0

    def apply(self, x):
        return self.A @ x + self.rho * x.sum()

    def residual_norm(self, x, b):
        """Recomputed ``||b - A x||`` and its rounding allowance."""
        r = b - self.apply(x)
        scale = np.linalg.norm(np.abs(b) + self.absA @ np.abs(x) + self.rho * np.abs(x).sum())
        return float(np.linalg.norm(r)), self.rounding * float(scale)

    def check(self, b, x, converged: bool) -> list:
        """Reasons the solve fails; an empty list means it passed."""
        problems = []
        if not converged:
            problems.append("solver did not report convergence")
        if not np.all(np.isfinite(x)):
            return problems + ["iterate is not finite"]
        bnorm = float(np.linalg.norm(b))
        rnorm, slack = self.residual_norm(x, b)
        if rnorm > self.tol * bnorm + slack:
            problems.append(f"recomputed relative residual {rnorm / bnorm:.3e} "
                            f"exceeds {self.tol:.0e} (+{slack / bnorm:.1e} rounding)")
        if self.lu is not None:
            x_ref = self.lu.solve(b)
            ref_norm, ref_slack = self.residual_norm(x_ref, b)
            err = float(np.linalg.norm(x - x_ref))
            bound = (rnorm + slack + ref_norm + ref_slack) / self.lam_lower
            self.max_ref_error = max(self.max_ref_error, err / float(np.linalg.norm(x_ref)))
            if err > bound:
                problems.append(f"distance to the direct solution {err:.3e} "
                                f"exceeds the residual bound {bound:.3e}")
        return problems
