"""Grid-transfer operators: projectors and Galerkin coarsening.

The projector is ``p = s * M(2 + 2cos) * T`` per dimension, where ``T`` is
the boundary-condition-specific 0/1 cutting matrix and ``s`` a scalar
(``1/sqrt(2)`` per dimension for Dirichlet, 1 otherwise).  Cutting index
maps, 1-based as usual in the multigrid literature:

* Dirichlet (tau):     n0 = 2 n1 + 1,  T[i, j] = 1 at i = 2j
* periodic (circulant): n0 = 2 n1,     T[i, j] = 1 at i = 2j - 1
* reflective (DCT-III): n0 = 2 n1,     T[i, j] = 1 at i in {2j-1, 2j}

A column of that product holds a few fixed taps, ``TAPS``, and ``p`` is
built from them alone: ``Projector`` stores the CSR arrays of ``p^T``, one
row per coarse unknown.  ``restrict`` multiplies by that CSR matrix and
``prolong`` by the CSC matrix over the same three arrays, which is ``p``
(``p`` is rectangular, so it is not stored by diagonals like the square
level operators of ``mgm``).  Both are ``structured.BoundProduct``s, built
with the projector and the only place it holds ``p`` and ``p^T``, which
call SciPy's compiled kernels directly: ``@`` spends about 3 us per
transfer on dispatch, a third of a level-1 transfer at 63^2.

Galerkin coarsening never forms a sparse triple product.  The coarse symbol
of the structured part is the algebra-specific fold of ``s^2 p(t)^2 g(t)``;
both it and the coarse correction scale by ``S_SQUARED``, ``s^2`` exactly.
The sparse correction is coarsened by diagonals, stencil by stencil (Dendy,
*Black box multigrid*, J. Comput. Phys. 48, 1982; Trottenberg, Oosterlee &
Schueller, *Multigrid*, 2001): ``galerkin_sparse`` takes and returns it as
``{offset: band}`` over the flattened grid and applies ``p`` one dimension
at a time with strided slices of each diagonal.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .structured import AlgebraKind, BoundProduct, StructuredOperator, integer_sizes
from .symbols import CosineSymbol, TensorSymbol, fold, fold_pairsum

__all__ = ["Projector", "coarse_size", "galerkin_structured", "galerkin_sparse"]

P_SYMBOL = CosineSymbol([2.0, 1.0])

# the taps of one column of p along a dimension, without the scalar s: column
# J holds them at the fine rows 2J + t (tau), 2J - 1 + t modulo n0
# (circulant), and 2J - 1 + t with rows -1 and n0 cut back to 0 and n0 - 1
# (DCT-III: the pairs 2J, 2J + 1 of M(2 + 2cos) T)
TAPS = {AlgebraKind.TAU: (1.0, 2.0, 1.0), AlgebraKind.CIRCULANT: (1.0, 2.0, 1.0),
        AlgebraKind.DCT3: (1.0, 3.0, 3.0, 1.0)}

# s^2 per dimension, read by both Galerkin products: exact, where
# Projector.scalar ** 2 = (1/sqrt(2)) ** 2 rounds to 0.4999999999999999
S_SQUARED = {AlgebraKind.TAU: 0.5, AlgebraKind.CIRCULANT: 1.0, AlgebraKind.DCT3: 1.0}


def coarse_size(kind: AlgebraKind, n: int) -> int:
    """Coarse order reachable from ``n``; raises if the parity is wrong."""
    if kind is AlgebraKind.TAU:
        if n % 2 == 0 or n < 3:
            raise ValueError(f"tau cutting needs odd n >= 3, got {n}")
        return (n - 1) // 2
    if n % 2 == 1 or n < 4:
        raise ValueError(f"{kind.value} cutting needs even n >= 4, got {n}")
    return n // 2


def _columns(kind: AlgebraKind, n0: int, n1: int, index) -> tuple:
    """One dimension's ``p / s`` by columns, as ``(n1, len(taps))`` tables of
    fine rows (ascending), taps and the entries held: the circulant column 0
    wraps its first tap to row n0 - 1, the last; a DCT-III end column adds
    its outer tap to the next one, on the same row, and drops it."""
    w = TAPS[kind]
    start = 0 if kind is AlgebraKind.TAU else -1
    rows = (2 * np.arange(n1)[:, None] + np.arange(start, start + len(w))).astype(index)
    taps = np.tile(w, (n1, 1))
    held = np.ones(rows.shape, dtype=bool)
    if kind is AlgebraKind.CIRCULANT:
        rows[0], taps[0] = (0, 1, n0 - 1), (w[1], w[2], w[0])
    elif kind is AlgebraKind.DCT3:
        taps[0, 1] += taps[0, 0]
        taps[-1, -2] += taps[-1, -1]
        held[0, 0] = held[-1, -1] = False
    return rows, taps, held


class Projector:
    """Tensor-product projector between two grid levels: the bound products
    of ``p`` and ``p^T``, two matrices over one set of arrays built from
    ``TAPS``.  ``restrict`` and ``prolong`` read their input as a float
    array; the products refuse one that is not a vector of the right length
    with a ``ValueError``."""

    def __init__(self, kind: AlgebraKind, fine_sizes):
        self.kind = kind
        self.fine_sizes = integer_sizes(fine_sizes)
        self.coarse_sizes = tuple(coarse_size(kind, n) for n in self.fine_sizes)
        self.scalar = (1.0 / np.sqrt(2.0)) if kind is AlgebraKind.TAU else 1.0
        self.n_fine = int(np.prod(self.fine_sizes))
        self.n_coarse = int(np.prod(self.coarse_sizes))
        self._prolong = self._restrict = None
        self.to_sparse()            # both are built here, never in a solve

    def prolong(self, y: np.ndarray) -> np.ndarray:
        """Coarse-to-fine map ``p y``."""
        return self._prolong(np.asarray(y, dtype=float))

    def restrict(self, r: np.ndarray) -> np.ndarray:
        """Fine-to-coarse map ``p^T r`` (exact adjoint of ``prolong``)."""
        return self._restrict(np.asarray(r, dtype=float))

    def to_sparse(self) -> sp.csc_array:
        """Sparse ``p``, CSC: the matrix of the bound product ``prolong``
        runs.  The first call, on construction, builds both bound products,
        ``p`` as CSC and ``p^T`` as CSR over the same three arrays.

        Entry for entry ``p`` is ``s * M(2 + 2cos) * T``, the Kronecker
        product of those in 2-D; each column's rows are sorted, and the
        index arrays are int32 where they fit.  The tables of rows and
        values are written in their final layout, ``(n1, n2, w, w)`` in
        2-D, by one ``np.add.outer`` and one ``np.multiply.outer`` per tap
        pair, and their flat views are the CSR arrays: no table is copied.
        """
        if self._prolong is None:
            width = len(TAPS[self.kind]) ** len(self.fine_sizes)
            index = np.int32 if self.n_coarse * width <= np.iinfo(np.int32).max else np.int64
            # only the DCT-III end columns drop an entry
            held = np.ones((1, 1), bool) if self.kind is AlgebraKind.DCT3 else None
            rows, values = np.zeros((1, 1), index), np.ones((1, 1))
            for n0, n1 in zip(self.fine_sizes, self.coarse_sizes):
                r, taps, h = _columns(self.kind, n0, n1, index)
                v, m = self.scalar * taps, len(rows) * n1
                # the Kronecker product with the dimensions before, row by row
                # of p^T: row (J', J) holds (i', i) for each tap pair (a, b),
                # ascending, each pair's table written in that final layout
                shape = (len(rows), n1, rows.shape[1], r.shape[1])
                shifted, weights = rows * n0, values
                rows, values = np.empty(shape, index), np.empty(shape)
                for a, b in np.ndindex(shape[2:]):
                    np.add.outer(shifted[:, a], r[:, b], out=rows[:, :, a, b])
                    np.multiply.outer(weights[:, a], v[:, b], out=values[:, :, a, b])
                rows, values = rows.reshape(m, -1), values.reshape(m, -1)
                if held is not None:
                    held = (held[:, None, :, None] & h[None, :, None, :]).reshape(m, -1)
            if held is None:        # every row of p^T holds all its taps
                arrays = (values.reshape(-1), rows.reshape(-1),
                          np.arange(self.n_coarse + 1, dtype=index) * width)
            else:
                indptr = np.zeros(self.n_coarse + 1, dtype=index)
                np.cumsum(held.sum(axis=1), out=indptr[1:])
                arrays = (values[held], rows[held], indptr)
            shape = (self.n_coarse, self.n_fine)        # of p^T
            self._restrict = BoundProduct(sp.csr_array(arrays, shape=shape))
            self._prolong = BoundProduct(sp.csc_array(arrays, shape=shape[::-1]))
        return self._prolong.matrix


def galerkin_structured(symbol: TensorSymbol, projector: Projector) -> TensorSymbol:
    """Coarse symbol of ``p^T M(symbol) p``, computed by per-dimension folds."""
    do_fold = fold_pairsum if projector.kind is AlgebraKind.DCT3 else fold
    s2 = S_SQUARED[projector.kind]
    p2 = P_SYMBOL * P_SYMBOL
    terms = [tuple(do_fold(p2 * g).scaled(s2) for g in term) for term in symbol.terms]
    return TensorSymbol(symbol.dim, terms)


def _cyclic(k: int, n: int) -> int:
    """The circulant offset ``k`` modulo ``n``, in ``(-n/2, n/2]``."""
    k %= n
    return k - n if 2 * k > n else k


def _grid_diagonals(bands: dict, sizes, cyclic: bool) -> dict:
    """Flat ``{offset: band}`` as ``{(k_1, ..., k_d): values}``, ``values``
    shaped as the grid with ``values[i] = R[i, i + k]`` (``i + k`` taken
    modulo the sizes when ``cyclic``), 0 where ``i + k`` is off the grid.

    In 2-D the flat offset ``q n2 + r``, ``0 <= r < n2``, holds the diagonal
    ``(q, r)`` in the columns ``i2 < n2 - r`` and ``(q + 1, r - n2)`` in the
    others; a band storing in only one of them is reshaped, not copied, and
    a band of zeros is left out.
    """
    out = {}

    def add(key, values):
        if cyclic:
            key = tuple(_cyclic(k, n) for k, n in zip(key, sizes))
        out[key] = out[key] + values if key in out else values

    for o, band in bands.items():
        values = band.reshape(sizes)
        if len(sizes) == 1:
            if values.any():
                add((o,), values)
            continue
        q, r = divmod(o, sizes[1])
        cut = sizes[1] - r
        left, right = values[:, :cut].any(), r > 0 and values[:, cut:].any()
        if left and right:
            left, right = values.copy(), np.zeros(sizes)
            left[:, cut:], right[:, cut:] = 0.0, values[:, cut:]
            add((q, r), left)
            add((q + 1, r - sizes[1]), right)
        elif left:
            add((q, r), values)
        elif right:
            add((q + 1, r - sizes[1]), values)
    return out


def _extended(kind: AlgebraKind, bands: dict, n0: int) -> dict:
    """``{k: values}`` of one dimension (axis 0) on the rows the taps read.

    Tau taps stay on the grid.  A circulant column's first tap, row -1, is
    row n0 - 1 of the cyclic diagonals: that row is prepended.  The DCT-III
    taps on rows -1 and n0 are rows 0 and n0 - 1: the diagonals of
    ``E R E^T``, ``E`` the map of the n0 + 2 extended rows onto the grid,
    repeat the first and the last row and column, so an entry in a repeated
    column reads the neighbouring diagonal, and the band grows by one.
    """
    if kind is AlgebraKind.TAU:
        return bands
    if kind is AlgebraKind.CIRCULANT:
        return {k: np.concatenate([values[-1:], values]) for k, values in bands.items()}
    m = max(abs(k) for k in bands)
    shape = (n0 + 2,) + next(iter(bands.values())).shape[1:]
    ext = {}
    for d in range(-m - 1, m + 2):
        near = bands.get(d - (d > 0) + (d < 0))     # the diagonal one nearer 0
        if near is None and d not in bands:
            continue
        e = ext[d] = np.zeros(shape)
        if d in bands:
            e[1:n0 + 1] = bands[d]
        if near is None:
            continue
        if d >= 0:
            e[0] = near[0]                  # row -1 is row 0
        if d <= 0:
            e[n0 + 1] = near[n0 - 1]        # row n0 is row n0 - 1
        if d > 0:
            e[n0 + 1 - d] = near[n0 - d]    # and so are the columns
        if d < 0:
            e[-d] = near[-d - 1]
    if n0 - 1 in bands:     # row -1, column n0: row 0, column n0 - 1
        ext[n0 + 1] = np.zeros(shape)
        ext[n0 + 1][0] = bands[n0 - 1][0]
    if 1 - n0 in bands:
        ext[-n0 - 1] = np.zeros(shape)
        ext[-n0 - 1][n0 + 1] = bands[1 - n0][n0 - 1]
    return ext


def _coarsen_axis(diagonals: dict, kind: AlgebraKind, axis: int, n0: int, n1: int) -> dict:
    """``p^T R p`` along one dimension: the diagonals of the dimensions before
    ``axis`` are coarse already, those after it still fine.

    The coarse diagonal ``K`` is ``G_K[J] = sum_a w_a sum_b w_b R_{2K+b-a}[2J+a]``
    over the taps ``w`` on the extended rows, the inner sum being ``R p`` on
    fine row ``2J + a``.  Only half the diagonals are formed: ``K >= 0``
    while every coarse offset before ``axis`` is 0, every ``K`` otherwise.
    """
    w = TAPS[kind]
    cyclic = kind is AlgebraKind.CIRCULANT
    m = max(abs(key[axis]) for key in diagonals)
    reach = (m + len(w) - 1) // 2                 # the coarse band
    groups = {}
    for key, values in diagonals.items():
        rest = key[:axis] + key[axis + 1:]
        groups.setdefault(rest, {})[key[axis]] = np.moveaxis(values, axis, 0)
    out = {}
    for rest, bands in groups.items():
        ext = _extended(kind, bands, n0)
        shape = (n1,) + next(iter(bands.values())).shape[1:]
        offsets = range(0 if not any(rest[:axis]) else -reach, reach + 1)
        if cyclic:
            offsets = sorted({_cyclic(K, n1) for K in offsets})
        for K in offsets:
            lo, hi = (0, n1) if cyclic else (max(0, -K), n1 - max(0, K))
            if lo >= hi:
                continue
            acc = None
            for a, wa in enumerate(w):
                inner = None
                for b, wb in enumerate(w):
                    d = 2 * K + b - a
                    src = ext.get(_cyclic(d, n0) if cyclic else d)
                    if src is None:
                        continue
                    term = src[a + 2 * lo:a + 2 * hi - 1:2]
                    if inner is None:
                        inner = term * wb
                    elif wb == 1.0:
                        inner += term
                    else:
                        inner += term * wb
                if inner is None:
                    continue
                if wa != 1.0:
                    inner *= wa
                if acc is None:
                    acc = inner
                else:
                    acc += inner
            if acc is not None:
                values = np.zeros(shape)
                values[lo:hi] = acc
                out[rest[:axis] + (K,) + rest[axis:]] = np.moveaxis(values, 0, axis)
    return out


def _pieces(key, sizes, cyclic: bool) -> list:
    """``(region, offsets)``: the grid region of each non-cyclic diagonal
    that the diagonal ``key`` holds."""
    per_dim = []
    for k, n in zip(key, sizes):
        if not cyclic or k == 0:
            per_dim.append([(slice(None), k)])
        elif k > 0:
            per_dim.append([(slice(0, n - k), k), (slice(n - k, n), k - n)])
        else:
            per_dim.append([(slice(-k, n), k), (slice(0, -k), k + n)])
    pieces = [((), ())]
    for options in per_dim:
        pieces = [(region + (r,), ks + (k,)) for region, ks in pieces for r, k in options]
    return pieces


def _flat_bands(diagonals: dict, sizes, cyclic: bool) -> dict:
    """``{(k_1, ..., k_d): values}`` as flat ``{offset: band}``.  The bands of
    offset >= 0 are read off the diagonals and the others mirror them, so
    the matrix is symmetric bit for bit."""
    n = int(np.prod(sizes))
    strides = (sizes[1], 1) if len(sizes) == 2 else (1,)
    upper = {}
    for key, values in diagonals.items():
        for region, ks in _pieces(key, sizes, cyclic):
            o = sum(k * stride for k, stride in zip(ks, strides))
            if o >= 0:
                band = upper.setdefault(o, np.zeros(sizes))
                band[region] += values[region]
    out = {}
    for o, band in upper.items():
        out[o] = band = band.reshape(n)
        if o > 0:
            out[-o] = np.zeros(n)
            out[-o][o:] = band[:n - o]
    return out


def galerkin_sparse(R: dict, projector: Projector) -> dict:
    """The Galerkin coarse correction ``p^T R p`` by diagonals.

    ``R`` is a symmetric correction on the fine grid as ``{offset: band}``,
    ``band[i] = R[i, i + offset]`` over the flattened grid (``dia_from_bands``
    stores it as a matrix); the result is the coarse correction in the same
    form, symmetric bit for bit, its diagonals with offset < 0 copies of the
    others.  The product is taken one dimension at a time on the grid's
    diagonals ``(k_1, ..., k_d)``; it agrees with the sparse triple product
    up to rounding.  ``R`` is not modified.
    """
    kind = projector.kind
    cyclic = kind is AlgebraKind.CIRCULANT
    diagonals = _grid_diagonals(R, projector.fine_sizes, cyclic)
    for axis, (n0, n1) in enumerate(zip(projector.fine_sizes, projector.coarse_sizes)):
        if not diagonals:
            return {}
        diagonals = _coarsen_axis(diagonals, kind, axis, n0, n1)
    s2 = S_SQUARED[kind] ** len(projector.fine_sizes)
    if s2 != 1.0:
        for values in diagonals.values():
            values *= s2
    if cyclic:                      # G[J, J - K] = G[J - K, J]
        dims = tuple(range(len(projector.coarse_sizes)))
        for key, values in list(diagonals.items()):
            mirror = tuple(_cyclic(-k, n) for k, n in zip(key, projector.coarse_sizes))
            if mirror not in diagonals:
                diagonals[mirror] = np.roll(values, key, axis=dims)
    return _flat_bands(diagonals, projector.coarse_sizes, cyclic)


def project_rank_one(gamma: float, projector: Projector) -> float:
    """Coarse coefficient of ``gamma e e^T / N`` under the Galerkin projection.

    Every column of ``p`` holds all its taps (the DCT-III end columns sum
    two on one row), so ``p^T e`` is the constant ``(s * sum(taps))^d``,
    4^d circulant and 8^d DCT-III, and the projected term is again
    ``gamma' e e^T / N_coarse``.
    """
    c = (projector.scalar * sum(TAPS[projector.kind])) ** len(projector.fine_sizes)
    return gamma * c * c * projector.n_coarse / projector.n_fine


def coarsen_structured(op: StructuredOperator, projector: Projector) -> StructuredOperator:
    """Full Galerkin coarse structured operator, rank-one term included."""
    sym = galerkin_structured(op.symbol, projector)
    gamma = None if op.rank_one is None else project_rank_one(op.rank_one, projector)
    return StructuredOperator(op.kind, projector.coarse_sizes, sym, rank_one=gamma)
