"""Matrix-free operators in the tau (DST-I), circulant, and DCT-III algebras.

Each algebra is the set of matrices diagonalized by a fixed trigonometric
basis; an operator is stored as its generating symbol plus an optional
rank-one correction ``gamma * e e^T / N`` (``e`` the all-ones vector) that
renders the singular circulant/DCT-III Laplacians positive definite.

Matrix-vector products use the banded entry formulas, which cost
``O(N * bandwidth)``; the symbols arising here keep O(1) bandwidth at every
grid level, so the structured part is never formed.
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


def apply_banded(kind: AlgebraKind, f: CosineSymbol, x: np.ndarray) -> np.ndarray:
    """Apply the n-by-n algebra matrix of ``f`` along axis 0 of ``x``."""
    t = f.coeffs
    m = len(t) - 1
    n = x.shape[0]
    if 2 * m >= n:
        # band too wide for the corner formulas: reconstruct densely
        D = dense_matrix(kind, f, n)
        return (D @ x.reshape(n, -1)).reshape(x.shape)
    y = t[0] * x
    if kind is AlgebraKind.CIRCULANT:
        for k in range(1, m + 1):
            y = y + t[k] * (np.roll(x, k, axis=0) + np.roll(x, -k, axis=0))
        return y
    for k in range(1, m + 1):
        y[k:] += t[k] * x[:-k]
        y[:-k] += t[k] * x[k:]
    if kind is AlgebraKind.TAU:
        # corners: subtract t_{i+j+2} (top-left) and t_{2n-i-j} (bottom-right)
        for i in range(max(m - 1, 0)):
            for k in range(i + 2, m + 1):
                y[i] -= t[k] * x[k - 2 - i]
        for i in range(max(n - m + 1, 0), n):
            for k in range(max(2, n + 1 - i), m + 1):
                y[i] -= t[k] * x[2 * n - i - k]
    else:  # DCT3: add t_{i+j+1} and t_{2n-1-i-j}
        for i in range(m):
            for k in range(i + 1, m + 1):
                y[i] += t[k] * x[k - 1 - i]
        for i in range(max(n - m, 0), n):
            for k in range(max(1, n - i), m + 1):
                y[i] += t[k] * x[2 * n - 1 - i - k]
    return y


def dense_matrix(kind: AlgebraKind, f: CosineSymbol, n: int) -> np.ndarray:
    """Dense n-by-n algebra matrix of a 1-D symbol."""
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
    m = len(t) - 1
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
    t = f.coeffs
    m = len(t) - 1
    if 2 * m >= n:
        raise ValueError(f"band {m} too wide for sparse form at size {n}")
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

    def apply(self, v: np.ndarray, ops=None) -> np.ndarray:
        """Matrix-vector product, ``O(N * bandwidth)``."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_total,):
            raise ValueError(f"expected vector of length {self.n_total}")
        if self.dim == 1:
            y = np.zeros_like(v)
            for (g,) in self.symbol.terms:
                y += apply_banded(self.kind, g, v)
        else:
            X = v.reshape(self.sizes)
            Y = np.zeros_like(X)
            for g1, g2 in self.symbol.terms:
                Y += apply_banded(self.kind, g2, apply_banded(self.kind, g1, X).T).T
            y = Y.ravel()
        nflops = 0
        for term in self.symbol.terms:
            bw = max(g.degree for g in term)
            nflops += (4 * bw + 2) * self.n_total
        if self.rank_one is not None:
            y = y + (self.rank_one * v.sum() / self.n_total)
            nflops += 3 * self.n_total
        if ops is not None:
            ops.add(nflops)
        return y

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

    def with_symbol(self, symbol: TensorSymbol, rank_one=None) -> "StructuredOperator":
        return StructuredOperator(self.kind, self.sizes, symbol, rank_one)

    def __repr__(self):
        return (f"StructuredOperator({self.kind.value}, sizes={self.sizes}, "
                f"rank_one={self.rank_one})")
