"""Operators in the tau (DST-I), circulant, and DCT-III algebras.

Each algebra is the set of matrices diagonalized by a fixed trigonometric
basis; an operator is stored as its generating symbol plus an optional
rank-one correction ``gamma * e e^T / N`` (``e`` the all-ones vector) that
renders the singular circulant/DCT-III Laplacians positive definite.

The symbol is kept for the Galerkin coarse symbols (folds of it), the
smoother damping (``sup|symbol|``) and the entry formulas of ``bands``;
an operator's matrix is read only as those bands, and its dense and CSR
forms live in the tests, as oracles.  Every coarse level matrix on the
solve path adds the Galerkin correction to ``bands`` (``mgm`` stores the
sum by diagonals for its products); the symbols arising here keep O(1)
bandwidth at every grid level, so it has ``O(N)`` entries.

Sparse matrices are built band by band: the entry formulas give each 1-D
diagonal as one array, a 2-D term's diagonals are outer products of its
factors' diagonals, and the terms are summed diagonal by diagonal into
``{offset: band}``.  ``dia_from_bands`` stores those bands as the
``sp.dia_array`` every level multiplies by, and SciPy's ``tocsr`` reads a
CSR of its nonzero entries off it in one compiled pass: the library's one
route from bands to a square sparse matrix.  No COO triples are formed and
no duplicates summed (the COO and Kronecker construction survives as the
test oracle, and the two agree bit for bit on the nonzero entries).

Every sparse product of the solve path is a ``BoundProduct``, which calls
SciPy's compiled kernel directly with the operands it bound at set-up;
this module is the only one that touches ``_sparsetools``.  At 63^2
SciPy's ``@`` spends about 3 us per product before its kernel runs, a
fifth of a level-0 product and a third of a level-1 one (under cProfile a
``richardson+cg`` solve spent 0.52 s in ``__matmul__`` for 17121
products, 0.18 s of it in the kernels), and reading the shape and arrays
off the matrix on every call cost another 0.5 to 0.9 us of a 10 us
level-0 kernel.  Each product allocates a zeroed float64 output and the
kernel accumulates into it, as ``@`` does, so the products equal ``@``'s
bit for bit.  The kernels themselves read past a short vector without a
word, so each product checks the length first.

``TriangularFactor`` is forward substitution with a sparse lower triangle
in its natural order, which is its own LU factor: unit lower triangular
``L`` the triangle with each column scaled by ``1 / pivot`` (the product
SuperLU's ``dpivotL`` forms) and ``U`` its pivots, stored on the diagonal
of ``L`` as SuperLU stores a supernode's.  It keeps the triangle's CSC
arrays so scaled and solves by SuperLU's factor-free kernel ``gstrs``, the
call ``spla.spsolve_triangular`` makes after its per-call checks and
copies; no factorization runs and no second copy of the triangle is made.
This module is also the only one that touches SciPy's private
``_superlu``; a SciPy without ``gstrs`` fails at import.
"""

from __future__ import annotations

import enum
import numbers

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu

from .symbols import CosineSymbol, TensorSymbol

__all__ = ["AlgebraKind", "BoundProduct", "StructuredOperator", "TriangularFactor",
           "algebra_grid", "dia_from_bands"]

if not hasattr(_superlu, "gstrs"):
    raise ImportError("wlmg needs SciPy's SuperLU triangular solve "
                      "scipy.sparse.linalg._dsolve._superlu.gstrs, which this SciPy "
                      f"{scipy.__version__} lacks")


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


def integer_sizes(sizes) -> tuple:
    """Sizes as a tuple of ``int``; a size that is not an integer (a float,
    a ``bool``, which ``int`` truncates or takes as 1) raises a ``ValueError``."""
    sizes = tuple(sizes) if np.iterable(sizes) else (sizes,)
    for n in sizes:
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ValueError(f"grid size {n!r} is not an integer")
    return tuple(int(n) for n in sizes)


def dia_from_bands(bands: dict, n: int) -> sp.dia_array:
    """The n-by-n matrix of ``{offset: band}``, ``band[i] = A[i, i + offset]``,
    stored by diagonals, offsets ascending; a diagonal with no nonzero entry
    is left out.  Its ``tocsr`` is the CSR of the nonzero entries."""
    offsets = [o for o in sorted(bands) if bands[o][max(0, -o):n - max(0, o)].any()]
    data = np.zeros((len(offsets), n))
    for row, o in zip(data, offsets):
        lo, hi = max(0, -o), n - max(0, o)          # the rows whose column is on the matrix
        row[lo + o:hi + o] = bands[o][lo:hi]
    return sp.dia_array((data, offsets), shape=(n, n))


class BoundProduct:
    """``A @ x`` for one float64 sparse matrix ``A``, stored by diagonals
    (``sp.dia_array``), as CSR or as CSC, by SciPy's compiled kernel.

    The kernel and its operands (``A``'s shape, arrays and, by diagonals,
    its offset count and band length) are bound once, on construction, so
    a product reads no attribute of ``A``.  ``matrix`` is ``A``.  A call
    refuses with a ``ValueError`` an ``x`` that is not a vector of ``A``'s
    column count (the kernels read past a short one without a word), and
    returns a new zeroed float64 array the kernel accumulated into.
    """

    __slots__ = ("matrix", "_kernel", "_operands", "_shape", "_rows")

    def __init__(self, A):
        if A.dtype != np.float64:
            raise TypeError(f"a bound product needs a float64 matrix, not {A.dtype}")
        if A.format == "dia":
            kernel = _sparsetools.dia_matvec
            operands = (*A.shape, len(A.offsets), A.data.shape[1], A.offsets, A.data)
        elif A.format in ("csr", "csc"):
            kernel = _sparsetools.csr_matvec if A.format == "csr" else _sparsetools.csc_matvec
            operands = (*A.shape, A.indptr, A.indices, A.data)
        else:
            raise TypeError(f"no bound product for the {A.format} format")
        self.matrix = A
        self._kernel, self._operands = kernel, operands
        self._rows, self._shape = A.shape[0], (A.shape[1],)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self._shape:
            raise ValueError(f"expected a vector of length {self._shape[0]}, "
                             f"got shape {x.shape}")
        y = np.zeros(self._rows)
        self._kernel(*self._operands, x, y)
        return y


class TriangularFactor:
    """Forward substitution with the n-by-n sparse lower triangle ``F``.

    ``lower`` is ``F`` as a square CSC array whose columns each start with
    their pivot (sorted rows; a ``ValueError`` otherwise), none of them zero
    (a ``ZeroDivisionError``).  Its arrays become the factor's: the data is
    scaled in place, each column by ``1 / pivot`` with the pivot put back
    on the diagonal.  ``solve(b)`` is one call of ``gstrs``, the unit
    forward sweep and then a division by the pivots, and returns a new
    array; ``gstrs`` raises a ``ValueError`` for a vector of the wrong
    length.
    """

    def __init__(self, lower: sp.csc_array):
        n = lower.shape[0]
        if lower.shape != (n, n):
            raise ValueError(f"the triangle must be square, not {lower.shape}")
        self.shape = lower.shape
        self.indptr = lower.indptr.astype(np.intc, copy=False)
        self.indices = lower.indices.astype(np.intc, copy=False)
        self.data = lower.data.astype(np.float64, copy=False)
        first = self.indptr[:-1]
        if not (np.diff(self.indptr).all()
                and np.array_equal(self.indices[first], np.arange(n))):
            raise ValueError("each column of the triangle must start with its pivot")
        pivots = self.data[first]
        zero = np.flatnonzero(pivots == 0.0)
        if zero.size:
            raise ZeroDivisionError(f"the pivot of column {zero[0]} is zero")
        # F^T's CSR arrays are F's CSC arrays: scaling its rows scales F's columns
        _sparsetools.csr_scale_rows(n, n, self.indptr, self.indices, self.data, 1.0 / pivots)
        self.data[first] = pivots
        self.nnz = self.data.size
        self._operands = (n, self.nnz, self.data, self.indices, self.indptr,
                          n, 0, np.empty(0), np.empty(0, np.intc), np.zeros(n + 1, np.intc))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``F^{-1} b``."""
        return _superlu.gstrs("N", *self._operands, b)[0]


def _diagonals(kind: AlgebraKind, f: CosineSymbol, n: int) -> dict:
    """The algebra matrix of a 1-D symbol by diagonals, ``{k: band}`` with
    ``band[i] = M[i, i + k]``, 0 off the matrix.

    The circulant wrap-around entries ``t_k`` at column distance ``n - k``
    add to a band entry that shares their position (when ``2m >= n``).
    """
    m = _check_band(kind, f, n)
    t = f.coeffs
    ext = np.concatenate([t, np.zeros(2 * n + 2)])   # ext[s] = t_s, 0 past m
    bands = {}
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
        bands[k] = band
    if kind is AlgebraKind.CIRCULANT:
        for k in range(1, m + 1):
            for offset, rows in ((k - n, slice(n - k, n)), (n - k, slice(0, k))):
                bands.setdefault(offset, np.zeros(n))[rows] += t[k]
    return bands


class StructuredOperator:
    """Operator ``M(symbol) + gamma * e e^T / N`` in one algebra.

    ``sizes`` holds the per-dimension orders; for d = 2 the operator acts on
    vectors of length ``n1 * n2`` (C-order flattening) as the sum of the
    separable terms of the tensor symbol.
    """

    def __init__(self, kind: AlgebraKind, sizes, symbol: TensorSymbol,
                 rank_one: float | None = None):
        self.kind = kind
        self.sizes = integer_sizes(sizes)
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

    def _term_bands(self, term):
        """One separable term's diagonals over the flattened grid, as
        ``(offset, band)`` pairs.

        A 2-D diagonal ``(k1, k2)`` is the outer product of the factors'
        diagonals at offset ``k1 n2 + k2``.  Pairs that share an offset
        hold entries in disjoint rows (the 0 of one factor's band off its
        matrix), so their sum leaves each entry as its own pair made it.
        """
        if self.dim == 1:
            return _diagonals(self.kind, term[0], self.sizes[0]).items()
        b1s, b2s = (_diagonals(self.kind, g, n) for g, n in zip(term, self.sizes))
        n2 = self.sizes[1]
        return ((k1 * n2 + k2, np.multiply.outer(b1, b2).ravel())
                for k1, b1 in b1s.items() for k2, b2 in b2s.items())

    def bands(self) -> dict:
        """The symbol part (rank-one term excluded) by diagonals over the
        flattened grid, ``{offset: band}``: every term's diagonals summed
        band by band, in order."""
        bands = {}
        for term in self.symbol.terms:
            for offset, band in self._term_bands(term):
                if offset in bands:
                    bands[offset] += band
                else:
                    bands[offset] = band
        return bands

    def __repr__(self):
        return (f"StructuredOperator({self.kind.value}, sizes={self.sizes}, "
                f"rank_one={self.rank_one})")
