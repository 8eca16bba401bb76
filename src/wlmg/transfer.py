"""Grid-transfer operators: cutting matrices, projectors, Galerkin coarsening.

The projector is ``p = s * M(2 + 2cos) * T`` per dimension, where ``T`` is
the boundary-condition-specific 0/1 cutting matrix and ``s`` a scalar
(``1/sqrt(2)`` per dimension for Dirichlet, 1 otherwise).  Cutting index
maps, 1-based as usual in the multigrid literature:

* Dirichlet (tau):     n0 = 2 n1 + 1,  T[i, j] = 1 at i = 2j
* periodic (circulant): n0 = 2 n1,     T[i, j] = 1 at i = 2j - 1
* reflective (DCT-III): n0 = 2 n1,     T[i, j] = 1 at i in {2j-1, 2j}

Both transfers are CSR products with the cached sparse ``p`` and ``p^T``
(``p`` is rectangular, so it is not stored by diagonals like the square
level operators of ``mgm``).
Galerkin coarsening of the structured part never forms matrices: the coarse
symbol is the algebra-specific fold of ``s^2 p(t)^2 g(t)``.  The sparse
correction is coarsened by an explicit sparse triple product.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .structured import AlgebraKind, StructuredOperator, sparse_matrix
from .symbols import CosineSymbol, TensorSymbol, fold, fold_pairsum

__all__ = ["Projector", "coarse_size", "cutting_matrix",
           "galerkin_structured", "galerkin_sparse"]

P_SYMBOL = CosineSymbol([2.0, 1.0])


def coarse_size(kind: AlgebraKind, n: int) -> int:
    """Coarse order reachable from ``n``; raises if the parity is wrong."""
    if kind is AlgebraKind.TAU:
        if n % 2 == 0 or n < 3:
            raise ValueError(f"tau cutting needs odd n >= 3, got {n}")
        return (n - 1) // 2
    if n % 2 == 1 or n < 4:
        raise ValueError(f"{kind.value} cutting needs even n >= 4, got {n}")
    return n // 2


def cutting_matrix(kind: AlgebraKind, n0: int) -> sp.csr_array:
    """Sparse 0/1 cutting matrix of shape (n0, n1)."""
    n1 = coarse_size(kind, n0)
    j = np.arange(n1)
    if kind is AlgebraKind.TAU:
        rows, cols = 2 * j + 1, j
    elif kind is AlgebraKind.CIRCULANT:
        rows, cols = 2 * j, j
    else:
        rows = np.empty(2 * n1, dtype=int)
        rows[0::2] = 2 * j
        rows[1::2] = 2 * j + 1
        cols = np.repeat(j, 2)
    vals = np.ones(len(rows))
    return sp.coo_array((vals, (rows, cols)), shape=(n0, n1)).tocsr()


class Projector:
    """Tensor-product projector between two grid levels."""

    def __init__(self, kind: AlgebraKind, fine_sizes):
        self.kind = kind
        self.fine_sizes = tuple(int(n) for n in fine_sizes)
        self.coarse_sizes = tuple(coarse_size(kind, n) for n in self.fine_sizes)
        self.scalar = (1.0 / np.sqrt(2.0)) if kind is AlgebraKind.TAU else 1.0
        self.n_fine = int(np.prod(self.fine_sizes))
        self.n_coarse = int(np.prod(self.coarse_sizes))
        self._sparse = None
        self._sparse_t = None

    def prolong(self, y: np.ndarray) -> np.ndarray:
        """Coarse-to-fine map ``p y``."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_coarse,):
            raise ValueError(f"expected coarse vector of length {self.n_coarse}")
        return self.to_sparse() @ y

    def restrict(self, r: np.ndarray) -> np.ndarray:
        """Fine-to-coarse map ``p^T r`` (exact adjoint of ``prolong``)."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.n_fine,):
            raise ValueError(f"expected fine vector of length {self.n_fine}")
        if self._sparse_t is None:
            self._sparse_t = sp.csr_array(self.to_sparse().T)
        return self._sparse_t @ r

    def to_sparse(self) -> sp.csr_array:
        """Sparse p (cached): the transfers, the triple products, the oracles.

        Its index arrays are int32 where they fit (``sp.kron`` gives int64);
        the index type changes no value of any product with ``p``.
        """
        if self._sparse is None:
            factors = []
            for n0 in self.fine_sizes:
                P = sparse_matrix(self.kind, P_SYMBOL, n0)
                factors.append(self.scalar * (P @ cutting_matrix(self.kind, n0)))
            M = factors[0]
            for F in factors[1:]:
                M = sp.kron(M, F, format="csr")
            M = sp.csr_array(M)
            M.sort_indices()
            if max(M.nnz, *M.shape) <= np.iinfo(np.int32).max:
                M = sp.csr_array((M.data, M.indices.astype(np.int32, copy=False),
                                  M.indptr.astype(np.int32, copy=False)), shape=M.shape)
            self._sparse = M
        return self._sparse


def _fold_for(kind: AlgebraKind):
    return fold_pairsum if kind is AlgebraKind.DCT3 else fold


def galerkin_structured(symbol: TensorSymbol, projector: Projector) -> TensorSymbol:
    """Coarse symbol of ``p^T M(symbol) p``, computed by per-dimension folds."""
    do_fold = _fold_for(projector.kind)
    s2 = projector.scalar ** 2
    p2 = P_SYMBOL * P_SYMBOL
    terms = []
    for term in symbol.terms:
        terms.append(tuple(do_fold(p2 * g).scaled(s2) for g in term))
    return TensorSymbol(symbol.dim, terms)


def galerkin_sparse(R: sp.csr_array, projector: Projector) -> sp.csr_array:
    """Sparse triple product ``p^T R p``, symmetrized against rounding."""
    p = projector.to_sparse()
    G = sp.csr_array(p.T @ (R @ p))
    G = sp.csr_array((G + G.T) * 0.5)
    G.sort_indices()
    return G


def project_rank_one(gamma: float, projector: Projector) -> float:
    """Coarse coefficient of ``gamma e e^T / N`` under the Galerkin projection.

    ``p^T e``, the column sums of ``p``, is a constant vector for the
    circulant and DCT-III projectors, so the projected term is again
    ``gamma' e e^T / N_coarse``.  Summing ``p`` leaves the ``p^T`` of
    ``restrict`` to the first solve.
    """
    u = np.asarray(projector.to_sparse().sum(axis=0)).ravel()
    c = float(u[0])
    if not np.allclose(u, c, rtol=1e-12, atol=1e-12):
        raise ValueError("rank-one projection needs constant column sums of p")
    return gamma * c * c * projector.n_coarse / projector.n_fine


def coarsen_structured(op: StructuredOperator, projector: Projector) -> StructuredOperator:
    """Full Galerkin coarse structured operator, rank-one term included."""
    sym = galerkin_structured(op.symbol, projector)
    gamma = None
    if op.rank_one is not None:
        gamma = project_rank_one(op.rank_one, projector)
    return StructuredOperator(op.kind, projector.coarse_sizes, sym, rank_one=gamma)
