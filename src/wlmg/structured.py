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

Sparse matrices are built band by band: the entry formulas give each 1-D
diagonal as one array, a 2-D term's diagonals are outer products of its
factors' diagonals, the terms are summed diagonal by diagonal, and
``csr_from_bands`` reads the CSR arrays off the result.  No COO triples are
formed and no duplicates summed (the COO and Kronecker construction
survives as the test oracle, and the two agree bit for bit).
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.sparse as sp

from .symbols import CosineSymbol, TensorSymbol

__all__ = ["AlgebraKind", "StructuredOperator", "algebra_grid", "csr_from_bands"]


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


def csr_from_bands(bands: dict, n: int, stored: dict | None = None) -> sp.csr_array:
    """The n-by-n CSR matrix of ``{offset: band}``, ``band[i] = A[i, i + offset]``.

    It stores the entries that ``stored`` (boolean bands under the same
    offsets) marks, or the nonzero ones when it is None.  The offsets are
    read in ascending order, so each row's columns come out sorted; indices
    are int32 where they fit.  ``bands`` is emptied, so each band can be
    freed once the CSR arrays hold it.
    """
    offsets = sorted(bands)
    index = np.int32 if n * len(offsets) <= np.iinfo(np.int32).max else np.int64
    mask = np.stack([bands[o] != 0.0 if stored is None else stored[o] for o in offsets],
                    axis=1)                                                  # (n, bands)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    values = np.stack([bands.pop(o) for o in offsets], axis=1)
    data = values[mask]
    del values
    indices = (np.arange(n, dtype=index)[:, None] + np.asarray(offsets, dtype=index))[mask]
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def _diagonals(kind: AlgebraKind, f: CosineSymbol, n: int) -> tuple:
    """The algebra matrix of a 1-D symbol by diagonals, ``({k: band},
    {k: stored})`` with ``band[i] = M[i, i + k]``, 0 off the matrix.

    A band-formula entry is stored where it is nonzero; the circulant
    wrap-around entries ``t_k`` at column distance ``n - k`` are always
    stored, zero or not, and add to a band entry that shares their position
    (when ``2m >= n``).
    """
    m = _check_band(kind, f, n)
    t = f.coeffs
    ext = np.concatenate([t, np.zeros(2 * n + 2)])   # ext[s] = t_s, 0 past m
    bands, stored = {}, {}
    for k in range(-min(m, n - 1), min(m, n - 1) + 1):    # j = i + k
        lo, hi = max(0, -k), n - max(0, k)
        i = np.arange(lo, hi)
        j = i + k
        band = np.zeros(n)
        v = band[lo:hi]
        v[:] = t[abs(k)]
        if kind is AlgebraKind.TAU:
            v -= ext[i + j + 2] + ext[2 * n - i - j]
        elif kind is AlgebraKind.DCT3:
            v += ext[i + j + 1] + ext[2 * n - 1 - i - j]
        bands[k], stored[k] = band, band != 0.0
    if kind is AlgebraKind.CIRCULANT:
        for k in range(1, m + 1):
            for offset, rows in ((k - n, slice(n - k, n)), (n - k, slice(0, k))):
                band = bands.setdefault(offset, np.zeros(n))
                mask = stored.setdefault(offset, np.zeros(n, dtype=bool))
                band[rows] = np.where(mask[rows], band[rows] + t[k], t[k])
                mask[rows] = True
    return bands, stored


def sparse_matrix(kind: AlgebraKind, f: CosineSymbol, n: int) -> sp.csr_array:
    """Sparse banded algebra matrix (includes the algebra's corner entries)."""
    bands, stored = _diagonals(kind, f, n)
    return csr_from_bands(bands, n, stored)


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

    def _term_bands(self, term) -> tuple:
        """One separable term's matrix by diagonals, ``({offset: band},
        {offset: stored})`` over the flattened grid.

        A 2-D diagonal ``(k1, k2)`` is the outer product of the factors'
        diagonals at offset ``k1 n2 + k2``.  Pairs that share an offset
        hold entries in disjoint rows (the 0 of one factor's band off its
        matrix), so each copies in only the entries it stores.
        """
        if self.dim == 1:
            return _diagonals(self.kind, term[0], self.sizes[0])
        (b1s, s1s), (b2s, s2s) = (_diagonals(self.kind, g, n)
                                  for g, n in zip(term, self.sizes))
        n2 = self.sizes[1]
        bands, stored = {}, {}
        for k1, b1 in b1s.items():
            for k2, b2 in b2s.items():
                offset = k1 * n2 + k2
                band = np.multiply.outer(b1, b2).ravel()
                mask = np.logical_and.outer(s1s[k1], s2s[k2]).ravel()
                if offset in bands:
                    np.copyto(bands[offset], band, where=mask)
                    stored[offset] |= mask
                else:
                    bands[offset], stored[offset] = band, mask
        return bands, stored

    def to_sparse(self) -> sp.csr_array:
        """Sparse banded matrix of the symbol part (rank-one term excluded).

        A single term stores each entry its factors store, zero or not.  The
        terms are summed band by band in order and the sum stores the
        nonzero entries: those of the CSR sum of the terms' matrices, with
        the same values.
        """
        first, *rest = self.symbol.terms
        bands, stored = self._term_bands(first)
        if rest:
            stored = None
        for term in rest:
            for offset, band in self._term_bands(term)[0].items():
                if offset in bands:
                    bands[offset] += band
                else:
                    bands[offset] = band
        return csr_from_bands(bands, self.n_total, stored)

    def __repr__(self):
        return (f"StructuredOperator({self.kind.value}, sizes={self.sizes}, "
                f"rank_one={self.rank_one})")
