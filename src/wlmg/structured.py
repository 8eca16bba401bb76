"""Operators in the tau (DST-I), circulant, and DCT-III algebras.

Each algebra is the set of matrices diagonalized by a fixed trigonometric
basis; an operator is stored as its generating symbol plus an optional
rank-one correction ``gamma * e e^T / N`` (``e`` the all-ones vector) that
renders the singular circulant/DCT-III Laplacians positive definite.

The symbol is kept for the Galerkin coarse symbols (folds of it), the
smoother damping (``sup|symbol|``) and the dense oracles.  Every level
matrix on the solve path is assembled from ``to_sparse`` (``mgm`` stores it
by diagonals for its products); the symbols arising here keep O(1)
bandwidth at every grid level, so it has ``O(N)`` entries.
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.sparse as sp

from .symbols import CosineSymbol, TensorSymbol

__all__ = ["AlgebraKind", "StructuredOperator", "algebra_grid"]


class AlgebraKind(enum.Enum):
    TAU = "tau"
    CIRCULANT = "circulant"
    DCT3 = "dct3"


def algebra_grid(kind: AlgebraKind, n: int) -> np.ndarray:
    """Angles at which the symbol yields the operator eigenvalues."""
    if kind is AlgebraKind.TAU:
        return np.arange(1, n + 1) * np.pi / (n + 1)
    if kind is AlgebraKind.CIRCULANT:
        return 2.0 * np.pi * np.arange(n) / n
    return np.pi * np.arange(n) / n


def first_nonzero_angle(kind: AlgebraKind, n: int) -> float:
    """Smallest positive frequency of the algebra's grid (Strang shift)."""
    if kind is AlgebraKind.CIRCULANT:
        return 2.0 * np.pi / n
    if kind is AlgebraKind.DCT3:
        return np.pi / n
    raise ValueError("tau operators are nonsingular; no Strang frequency")


# the entry formulas are exact while the band m is at most n + slack: m < n
# (circulant), m <= n (DCT-III) and m <= n + 2 (tau); past that the band
# folds over more than once
_FOLD_SLACK = {AlgebraKind.TAU: 2, AlgebraKind.DCT3: 0, AlgebraKind.CIRCULANT: -1}


def _check_band(kind: AlgebraKind, f: CosineSymbol, n: int) -> int:
    """The band of ``f``; raises past the fold limit of size ``n``."""
    m = len(f.coeffs) - 1
    if m > n + _FOLD_SLACK[kind]:
        raise ValueError(f"band {m} too wide for the {kind.value} entry formulas "
                         f"at size {n}")
    return m


def dense_matrix(kind: AlgebraKind, f: CosineSymbol, n: int) -> np.ndarray:
    """Dense n-by-n algebra matrix of a 1-D symbol."""
    m = _check_band(kind, f, n)
    t = f.coeffs
    i = np.arange(n)
    I, J = np.meshgrid(i, i, indexing="ij")

    def tt(S):
        S = np.asarray(S)
        out = np.zeros(S.shape)
        mask = S < len(t)
        out[mask] = t[S[mask]]
        return out

    if kind is AlgebraKind.TAU:
        return tt(np.abs(I - J)) - tt(I + J + 2) - tt(2 * n - I - J)
    if kind is AlgebraKind.CIRCULANT:
        D = (I - J) % n
        M = tt(D)
        wrap = D != 0
        M[wrap] += tt(n - D)[wrap]
        return M
    # DCT-III: banded entry formula (exact) when the band is narrow, else
    # eigen-reconstruction with the orthonormal basis
    if 2 * m < n:
        return tt(np.abs(I - J)) + tt(I + J + 1) + tt(2 * n - 1 - I - J)
    Q = dct3_basis(n)
    lam = f.eval(algebra_grid(kind, n))
    return (Q * lam) @ Q.T


def dct3_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-III eigenvector matrix, columns indexed by frequency."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    Q = np.sqrt(2.0 / n) * np.cos((2 * i + 1) * j * np.pi / (2 * n))
    Q[:, 0] /= np.sqrt(2.0)
    return Q


def sparse_matrix(kind: AlgebraKind, f: CosineSymbol, n: int) -> sp.csr_array:
    """Sparse banded algebra matrix (includes the algebra's corner entries)."""
    m = _check_band(kind, f, n)
    t = f.coeffs
    band = np.concatenate([t, np.zeros(2 * n + 2)])   # band[s] = t_s, 0 past m
    rows, cols, vals = [], [], []
    for k in range(-m, m + 1):       # one diagonal, j = i + k, at a time
        i = np.arange(max(0, -k), n - max(0, k))
        j = i + k
        v = np.full(i.size, t[abs(k)])
        if kind is AlgebraKind.TAU:
            v -= band[i + j + 2] + band[2 * n - i - j]
        elif kind is AlgebraKind.DCT3:
            v += band[i + j + 1] + band[2 * n - 1 - i - j]
        keep = v != 0.0
        rows.append(i[keep])
        cols.append(j[keep])
        vals.append(v[keep])
    if kind is AlgebraKind.CIRCULANT:
        # wrap-around entries t_k at column distance n - k
        for k in range(1, m + 1):
            i = np.arange(n - k, n)
            rows += [i, i - (n - k)]
            cols += [i - (n - k), i]
            vals += [np.full(k, t[k])] * 2
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    A = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    A.sort_indices()
    return A


class StructuredOperator:
    """Operator ``M(symbol) + gamma * e e^T / N`` in one algebra.

    ``sizes`` holds the per-dimension orders; for d = 2 the operator acts on
    vectors of length ``n1 * n2`` (C-order flattening) as the sum of the
    separable terms of the tensor symbol.
    """

    def __init__(self, kind: AlgebraKind, sizes, symbol: TensorSymbol,
                 rank_one: float | None = None):
        self.kind = kind
        self.sizes = tuple(int(n) for n in sizes)
        if symbol.dim != len(self.sizes):
            raise ValueError("symbol dimension does not match sizes")
        self.symbol = symbol
        self.rank_one = rank_one

    @property
    def n_total(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def dim(self) -> int:
        return len(self.sizes)

    def eigenvalues(self) -> np.ndarray:
        """Symbol samples on the algebra grid (eigenvalues, uncorrected part)."""
        grids = [algebra_grid(self.kind, n) for n in self.sizes]
        return self.symbol.eval_grid(grids).ravel()

    def strang_correct(self) -> "StructuredOperator":
        """Rank-one shift by the symbol value at the first nonzero frequency."""
        if self.kind is AlgebraKind.TAU:
            raise ValueError("Strang correction applies to circulant/DCT-III only")
        zero = self.symbol.eval(*([0.0] * self.dim))
        if abs(zero) > 1e-12:
            raise ValueError("symbol does not vanish at the zero frequency")
        freqs = [first_nonzero_angle(self.kind, n) for n in self.sizes]
        gamma = float(self.symbol.eval(*freqs))
        return StructuredOperator(self.kind, self.sizes, self.symbol, rank_one=gamma)

    def materialize_dense(self) -> np.ndarray:
        """Dense matrix; verification oracle only, guarded against large N."""
        if self.n_total > 4096:
            raise ValueError("dense materialization capped at N <= 4096")
        if self.dim == 1:
            M = np.zeros((self.n_total, self.n_total))
            for (g,) in self.symbol.terms:
                M += dense_matrix(self.kind, g, self.sizes[0])
        else:
            M = np.zeros((self.n_total, self.n_total))
            for g1, g2 in self.symbol.terms:
                M += np.kron(dense_matrix(self.kind, g1, self.sizes[0]),
                             dense_matrix(self.kind, g2, self.sizes[1]))
        if self.rank_one is not None:
            M = M + self.rank_one / self.n_total
        return M

    def to_sparse(self) -> sp.csr_array:
        """Sparse banded matrix of the symbol part (rank-one term excluded)."""
        mats = []
        for term in self.symbol.terms:
            parts = [sparse_matrix(self.kind, g, n) for g, n in zip(term, self.sizes)]
            M = parts[0]
            for P in parts[1:]:
                M = sp.kron(M, P, format="csr")
            mats.append(M)
        out = mats[0]
        for M in mats[1:]:
            out = out + M
        out = sp.csr_array(out)
        out.sort_indices()
        return out

    def __repr__(self):
        return (f"StructuredOperator({self.kind.value}, sizes={self.sizes}, "
                f"rank_one={self.rank_one})")
