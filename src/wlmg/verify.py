"""Dense brute-force checks of the two-grid convergence theory.

These routines quantify, at small sizes, the two inequalities whose ratio
bounds the two-grid contraction in the energy norm:

* smoothing:      ||V x||_A^2 <= ||x||_A^2 - alpha ||x||_{A X^{-1} A}^2
* approximation:  min_y ||x - p y||_2^2 <= beta ||x||_A^2

with ``X = I`` throughout.  Whenever both constants exist, ``beta >= alpha``
and ``||TGM||_A <= sqrt(1 - alpha/beta) < 1``.

Each of the four constants refuses an ``A`` (and ``B``) that is not
square, within 1024 rows, symmetric and positive definite, certified by a
Cholesky factor; its one eigendecomposition is that of its pencil.

This is the library's one dense module: ``theory_report`` reads its dense
matrices off the sparse forms the solver runs, and the cycle's off ``vcycle``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .discretize import GridSpec, assemble, make_coefficient, split
from .mgm import SolverConfig, build_hierarchy, vcycle
from .structured import dia_from_bands

__all__ = ["smoothing_constant", "approximation_constant",
           "spectral_equivalence", "tgm_contraction", "TheoryReport",
           "theory_report", "dense_iteration_matrix"]

_SIZE_CAP = 1024


def _check_spd(A: np.ndarray, name: str):
    """Refuse ``A`` unless it is square, within the cap, symmetric and has a
    Cholesky factor, which certifies it positive definite."""
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square")
    if A.shape[0] > _SIZE_CAP:
        raise ValueError(f"{name} exceeds the dense oracle cap {_SIZE_CAP}")
    if np.abs(A - A.T).max() > 1e-10 * max(np.abs(A).max(), 1.0):
        raise ValueError(f"{name} must be symmetric")
    try:
        la.cholesky(A)
    except la.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None


def smoothing_constant(A: np.ndarray, V: np.ndarray, X: np.ndarray | None = None) -> float:
    """Largest ``alpha`` with ``V^T A V <= A - alpha * A X^{-1} A`` (X = I default)."""
    _check_spd(A, "A")
    gap = A - V.T @ A @ V
    if X is None:
        W = A @ A
    else:
        W = A @ la.solve(X, A, assume_a="pos")
    W = 0.5 * (W + W.T)
    vals = la.eigvalsh(0.5 * (gap + gap.T), W)
    return float(vals.min())


def approximation_constant(A: np.ndarray, p: np.ndarray) -> float:
    """``beta = max_x ||(I - Pi_p) x||_2^2 / ||x||_A^2`` for full-rank ``p``:
    the largest eigenvalue of the pencil ``(I - Q Q^T, A)``, ``Q`` an
    orthonormal basis of the range of ``p``."""
    _check_spd(A, "A")
    q, _ = np.linalg.qr(p)
    if np.linalg.matrix_rank(p) < p.shape[1]:
        raise ValueError("p must have full column rank")
    complement = np.eye(A.shape[0]) - q @ q.T
    return float(la.eigvalsh(complement, A)[-1])


def spectral_equivalence(A: np.ndarray, B: np.ndarray) -> tuple:
    """Extreme generalized eigenvalues of the pencil (A, B), both SPD."""
    _check_spd(A, "A")
    _check_spd(B, "B")
    vals = la.eigvalsh(A, B)
    return float(vals.min()), float(vals.max())


def tgm_contraction(A: np.ndarray, M: np.ndarray) -> float:
    """Energy-norm of an iteration matrix, ``||M||_A = ||A^{1/2} M A^{-1/2}||_2``:
    the square root of the largest eigenvalue of the pencil ``(M^T A M, A)``."""
    _check_spd(A, "A")
    return float(np.sqrt(la.eigvalsh(M.T @ A @ M, A)[-1]))


@dataclass
class TheoryReport:
    """Measured convergence-theory constants for one configuration."""

    bc: str
    coeff: str
    n: int
    alpha_post: float
    beta: float
    bound: float
    measured_contraction: float
    theta1: float
    theta2: float

    @property
    def chain_holds(self) -> bool:
        return (self.alpha_post > 0 and self.beta >= self.alpha_post
                and self.bound < 1.0
                and self.measured_contraction <= self.bound + 1e-8)


def dense_iteration_matrix(H) -> np.ndarray:
    """Column-by-column extraction of the cycle's error-propagation matrix.

    Valid for linear smoother pairs only (CG smoothing makes the cycle
    nonlinear); relies on ``cycle(x, b=0) = M x``.
    """
    if not H.config.is_linear:
        raise ValueError("iteration matrix is undefined for CG smoothing")
    n = H.levels[0].n
    if n > 4096:
        raise ValueError("dense extraction capped at N <= 4096")
    M, zero = np.empty((n, n)), np.zeros(n)
    for j in range(n):
        M[:, j] = vcycle(H, 0, np.eye(1, n, j)[0], zero)
    return M


def _dense(A, rank_one: float | None, n: int) -> np.ndarray:
    """The sparse ``A`` plus ``rank_one * e e^T / n``, if any, as a dense matrix."""
    M = A.toarray()
    return M if rank_one is None else M + rank_one / n


def theory_report(bc, coeff, n: int) -> TheoryReport:
    """Run the full dense chain on a two-level Richardson hierarchy for one
    setup: ``A`` is its finest level matrix, rank-one term included, and
    ``(A, B)`` the ``theta`` pencil, ``B`` the splitting's structured part.
    Each constant certifies its own input by a Cholesky factor, so the only
    eigendecompositions are those of the four pencils."""
    grid = GridSpec((n,), bc)
    coeff = make_coefficient(coeff, 1)
    problem = split(assemble(grid, coeff), grid, coeff)
    H = build_hierarchy(problem, SolverConfig(method="tgm"))

    lev = H.levels[0]
    A = _dense(lev.combined, lev.gamma, lev.n)
    p = lev.projector.to_sparse().toarray()
    V_post = np.eye(len(A)) - lev.omega_post * A
    alpha = smoothing_constant(A, V_post)
    beta = approximation_constant(A, p)
    bound = float(np.sqrt(max(1.0 - alpha / beta, 0.0)))
    contraction = tgm_contraction(A, dense_iteration_matrix(H))

    S = problem.structured
    B = _dense(dia_from_bands(S.bands(), lev.n), S.rank_one, lev.n)
    theta1, theta2 = spectral_equivalence(A, B)
    return TheoryReport(grid.bc.value, coeff.name, n, alpha, beta, bound,
                        contraction, theta1, theta2)
