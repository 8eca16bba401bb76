"""Finite cosine-series algebra for generating functions.

A :class:`CosineSymbol` stores coefficients ``c_0..c_m`` of the even
trigonometric polynomial

    f(t) = c_0 + sum_{k=1}^{m} 2 * c_k * cos(k*t),

so that the symmetric banded matrix associated with ``f`` has diagonal
``c_0`` and ``k``-th off-diagonal ``c_k``.  The module also provides the
two decimation operations that produce coarse-grid symbols: the plain
half-angle fold used by the sine/Fourier algebras and the pair-summing
fold used by the cosine (DCT-III) algebra.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CosineSymbol", "TensorSymbol", "fold", "fold_pairsum"]

# TensorSymbol.sup_norm bounds the 2-D angle grid in square blocks of this
# side, and evaluates at most _SUP_CHUNK blocks, or by rows as many values in
# whole rows, at a time (32 KiB of values per array, under the 256 KiB of
# two 16-row strips of the 1025-point grid)
_SUP_BLOCK = 16
_SUP_CHUNK = 16
# TensorSymbol.sup_norm by rows: the rounding bound's factor of K eps S and
# the share the drop from a row's end is taken smaller by (see its docstring)
_SUP_ROW_ROUNDING = 16.0
_SUP_DROP_SLACK = 1e-6
# relative margin of a block bound over the rounding of the bound and of the
# evaluated sums: (1 + u)^(2K + 1) - 1 <= 1e-12 for K < 4000 terms, u the
# unit roundoff (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., sections 2-3)
_SUP_MARGIN = 1e-12


class CosineSymbol:
    """Even cosine polynomial given by its band coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D sequence")
        # trailing exact zeros do not change evaluation
        nz = np.nonzero(c)[0]
        last = nz[-1] if nz.size else 0
        self.coeffs = c[: last + 1].copy()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, t):
        """Evaluate ``c_0 + sum 2 c_k cos(kt)`` at scalar or array ``t``."""
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.coeffs[0])
        for k in range(1, len(self.coeffs)):
            out = out + 2.0 * self.coeffs[k] * np.cos(k * t)
        return out if out.shape else float(out)

    def laurent(self) -> np.ndarray:
        """Symmetric Laurent coefficients ``a_{-m}..a_m`` with ``a_k = c_|k|``."""
        c = self.coeffs
        return np.concatenate([c[:0:-1], c])

    def product(self, other: "CosineSymbol") -> "CosineSymbol":
        """Pointwise product; coefficient convolution in Laurent form."""
        lc = np.convolve(self.laurent(), other.laurent())
        mid = len(lc) // 2
        return CosineSymbol(lc[mid:])

    def scaled(self, alpha: float) -> "CosineSymbol":
        return CosineSymbol(alpha * self.coeffs)

    def __mul__(self, other):
        """The pointwise product with another symbol; a scalar multiple is
        ``scaled``."""
        if not isinstance(other, CosineSymbol):
            return NotImplemented
        return self.product(other)

    def __eq__(self, other):
        if not isinstance(other, CosineSymbol):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"CosineSymbol({self.coeffs.tolist()})"


def fold(g: CosineSymbol) -> CosineSymbol:
    """Half-angle decimation: ``fold(g)(t) = (g(t/2) + g(t/2 + pi)) / 2``.

    Odd harmonics cancel, so in coefficients ``fold(g)_k = g_{2k}``.
    """
    return CosineSymbol(g.coeffs[::2])


def fold_pairsum(g: CosineSymbol) -> CosineSymbol:
    """Pair-summing decimation used by the DCT-III cutting operator.

    Implements ``(1+cos(t/2)) g(t/2) + (1-cos(t/2)) g(t/2+pi)``; in Laurent
    coefficients ``a``, the result has ``a'_k = 2 a_{2k} + a_{2k-1} + a_{2k+1}``.
    """
    a = np.concatenate([g.laurent(), np.zeros(3)])
    m = g.degree
    out = [2.0 * a[m] + 2.0 * a[m + 1]]
    for k in range(1, m // 2 + 2):
        out.append(2.0 * a[m + 2 * k] + a[m + 2 * k - 1] + a[m + 2 * k + 1])
    return CosineSymbol(out)


class TensorSymbol:
    """Sum of separable products of 1-D cosine symbols.

    The d-dimensional symbol is ``sum_terms prod_r g_r(t_r)`` where each
    term is a tuple of ``d`` :class:`CosineSymbol` factors.  The discrete
    Laplacian symbol is the separable sum ``f(t1) + f(t2)``, i.e. the two
    terms ``(f, 1)`` and ``(1, f)``.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms):
        if dim not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        terms = [tuple(term) for term in terms]
        if not terms:
            raise ValueError("term list must be non-empty")
        for term in terms:
            if len(term) != dim:
                raise ValueError("each term needs one factor per dimension")
        self.dim = dim
        self.terms = terms

    @classmethod
    def from_1d(cls, f: CosineSymbol) -> "TensorSymbol":
        return cls(1, [(f,)])

    @classmethod
    def separable_sum(cls, factors) -> "TensorSymbol":
        """Build ``f1(t1) + f2(t2) + ...`` from per-dimension symbols."""
        factors = list(factors)
        d = len(factors)
        if d == 1:
            return cls.from_1d(factors[0])
        one = CosineSymbol([1.0])
        terms = []
        for r, f in enumerate(factors):
            terms.append(tuple(f if q == r else one for q in range(d)))
        return cls(d, terms)

    def eval(self, *t):
        """Evaluate at per-dimension angles (scalars or broadcastable arrays)."""
        if len(t) != self.dim:
            raise ValueError("need one angle per dimension")
        total = 0.0
        for term in self.terms:
            part = term[0].eval(t[0])
            for r in range(1, self.dim):
                part = part * term[r].eval(t[r])
            total = total + part
        return total

    def eval_grid(self, grids) -> np.ndarray:
        """Evaluate on the tensor grid of per-dimension angle arrays."""
        if self.dim == 1:
            return np.asarray(self.eval(grids[0]))
        out = np.zeros((len(grids[0]), len(grids[1])))
        for g1, g2 in self.terms:
            out += np.outer(g1.eval(grids[0]), g2.eval(grids[1]))
        return out

    def sup_norm(self, npoints: int = 1025) -> float:
        """Max of the absolute value over a dense tensor grid of angles in
        [0, pi] (of a 1-D symbol ``f`` as ``TensorSymbol.from_1d(f)``).

        In 2-D the value is exactly that max over the ``npoints^2`` grid,
        each entry by the sums of ``eval_grid`` without its leading ``0 +``
        (which changes at most the sign of a zero), but most of the grid is
        never evaluated.  Of the two paths, the input chooses one.

        *By rows*, where every factor on one axis has at most two
        coefficients (the factors swap when that is the first axis: the
        products and sums, and so the bits, stay the same).  A grid row of
        the other axis's factor values ``x_k`` is then the evaluation of
        ``A + 2 B cos t``, ``B = sum_k x_k c_k1``, monotone on [0, pi], so
        its max and min are at its two ends unless rounding bends it.  A
        row whose drop from an end to the next angle,
        ``2 |B| (1 - cos h)`` with ``h = pi / (npoints - 1)``, exceeds
        ``2 E`` is evaluated at its ends only; the others are evaluated
        whole, ``_SUP_BLOCK^2 _SUP_CHUNK`` values at a time.  With
        ``S = sum_k |x_k| (|c_k0| + 2 |c_k1|)``, ``eps`` the machine epsilon
        and ``np.cos`` within ``m`` ulps, the model of N. J. Higham
        (*Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM
        2002, sections 2-3) puts, to first order, each factor value within
        ``(m + 1) eps (|c_k0| + 2 |c_k1|)`` of its exact value, each product
        within ``(m + 3/2) eps |x_k| (|c_k0| + 2 |c_k1|)`` and the sum of the
        ``K`` products within ``(m + 1 + K/2) eps S`` of the exact row;
        ``B`` as summed is within ``K eps S / 4``, which moves the drop by
        at most ``K eps S`` (``1 - cos h <= 2``).  So a row past the test
        with

            E = 16 K eps S + K tiny (sum_k |x_k| + 1)

        has every inner value below its larger end and above its smaller
        one for any ``m <= 13``.  The second term covers underflow, where
        a product is off by up to ``2^-1075`` (``tiny`` is the smallest
        normal number, ``2^53`` times that); the drop is taken ``1e-6``
        smaller than computed, which covers the rounding of the angles
        ``linspace`` makes for ``npoints`` below ``10^9``.  Rounding is
        monotone and ``|cos| <= 1``, so no partial sum of a row exceeds its
        ``S`` as summed: a row of finite ``S`` does not overflow, and one of
        infinite ``S`` has ``E`` infinite and is evaluated whole.

        *By blocks*, for every other symbol (the reflective coarse levels,
        whose factors are wider on both axes) and for any symbol with a
        factor value that is not finite.  The grid is cut into
        ``_SUP_BLOCK``-square blocks, each bounded by
        ``sum_k max|u_k| max|v_k|`` over its rows and columns, widened by
        ``_SUP_MARGIN`` to cover rounding.  The block of the largest bound
        is evaluated first, then, ``_SUP_CHUNK`` at a time, every block
        whose bound exceeds the largest value found so far; the blocks left
        cannot hold a larger one.  Blocks of a NaN or infinite bound are
        evaluated too, and a NaN found is returned, as the full grid's max
        would return it.
        """
        t = np.linspace(0.0, np.pi, npoints)
        if self.dim == 1:
            return float(np.max(np.abs(self.eval_grid([t]))))
        terms = self.terms
        by_rows = all(g2.degree <= 1 for _, g2 in terms)
        if not by_rows and all(g1.degree <= 1 for g1, _ in terms):
            terms, by_rows = [(g2, g1) for g1, g2 in terms], True
        nb = -(-npoints // _SUP_BLOCK)
        # factors on the grid, (term, angle), padded to whole blocks with the
        # last angle's values, so a padded product is a grid value too
        uv = np.empty((2, len(terms), nb * _SUP_BLOCK))
        u, v = uv
        for k, (g1, g2) in enumerate(terms):
            u[k, :npoints], v[k, :npoints] = g1.eval(t), g2.eval(t)
        del t
        uv[:, :, npoints:] = uv[:, :, npoints - 1:npoints]
        if by_rows and np.isfinite(uv).all():
            coeffs = np.array([(g2.coeffs[0], g2.coeffs[1] if g2.degree else 0.0)
                               for _, g2 in terms])
            return _sup_by_rows(u[:, :npoints], v[:, :npoints], coeffs)
        return _sup_by_blocks(u, v, nb)

    def scaled(self, alpha: float) -> "TensorSymbol":
        terms = [(term[0].scaled(alpha),) + term[1:] for term in self.terms]
        return TensorSymbol(self.dim, terms)

    def __repr__(self):
        return f"TensorSymbol(dim={self.dim}, terms={self.terms!r})"


def _whole_rows(x: np.ndarray, coeffs: np.ndarray, npoints: int) -> np.ndarray:
    """Which rows ``sum_k x_k[i] (c_k0 + 2 c_k1 cos t)`` of ``sup_norm``'s
    grid may hold the max or min of their float evaluation away from their
    ends: those whose drop from an end is not above twice the rounding
    bound ``E_i``."""
    if npoints <= 2:        # no row has a point between its ends
        return np.zeros(npoints, dtype=bool)
    slope, size, mass = np.zeros((3, npoints))
    with np.errstate(over="ignore", invalid="ignore"):     # such rows go whole
        for xk, (c0, c1) in zip(x, coeffs):
            slope += xk * c1
            ax = np.abs(xk)
            mass += ax
            ax *= abs(c0) + 2.0 * abs(c1)
            size += ax
        k = len(coeffs)
        # the drop 2 |B_i| (1 - cos h), as 1 - cos h = 2 sin^2(h/2) free of
        # cancellation, against 2 E_i, both in place
        drop = np.abs(slope, out=slope)
        drop *= 4.0 * np.sin(np.pi / (2 * (npoints - 1))) ** 2 * (1.0 - _SUP_DROP_SLACK)
        twice_err = size
        twice_err *= 2.0 * _SUP_ROW_ROUNDING * k * np.finfo(float).eps
        mass += 1.0
        twice_err += mass * (2.0 * k * np.finfo(float).tiny)
    return ~(drop > twice_err)


def _sup_by_rows(x: np.ndarray, y: np.ndarray, coeffs: np.ndarray) -> float:
    """``sup_norm`` of ``sum_k x_k(t1) y_k(t2)`` on the grid by rows, the
    finite factor values ``x``, ``y`` of shape (term, angle), ``y_k`` of the
    coefficients ``coeffs[k]``: every row's two ends, and whole the rows
    ``_whole_rows`` names."""
    npoints = x.shape[1]
    ends = y[:, [0, npoints - 1]]
    out = ends[0][:, None] * x[0]
    for xk, ek in zip(x[1:], ends[1:]):
        out += ek[:, None] * xk
    hi, lo = float(out.max()), float(out.min())
    if np.isnan(hi):
        return hi    # as the max over the full grid would
    peak = max(0.0, hi, -lo)
    rows = np.flatnonzero(_whole_rows(x, coeffs, npoints))
    step = max(1, _SUP_BLOCK * _SUP_BLOCK * _SUP_CHUNK // npoints)
    for start in range(0, rows.size, step):
        r = rows[start:start + step]
        out = x[0][r, None] * y[0]
        for xk, yk in zip(x[1:], y[1:]):
            out += xk[r, None] * yk
        hi, lo = float(out.max()), float(out.min())
        if np.isnan(hi):
            return hi
        peak = max(peak, hi, -lo)
    return peak


def _sup_by_blocks(u: np.ndarray, v: np.ndarray, nb: int) -> float:
    """``sup_norm`` of ``sum_k u_k(t1) v_k(t2)`` on the grid by blocks, the
    factor values ``u``, ``v`` of shape (term, angle) padded to ``nb``
    whole blocks."""
    u, v = (a.reshape(len(a), nb, _SUP_BLOCK) for a in (u, v))
    # block bounds sum_k max|u_k| max|v_k|, (row block, column block) flattened
    umax, vmax = (np.abs(a).max(axis=2) for a in (u, v))
    bound = np.multiply.outer(umax[0], vmax[0]).ravel()
    for uk, vk in zip(umax[1:], vmax[1:]):
        bound += np.multiply.outer(uk, vk).ravel()
    bound *= 1.0 + _SUP_MARGIN
    # the block of the largest bound first (a NaN bound, whose block holds
    # a NaN, is the argmax), then every block whose bound exceeds the
    # largest value found so far
    peak, todo = 0.0, np.array([bound.argmax()])
    while todo.size:
        todo = todo[:_SUP_CHUNK]
        r, c = todo // nb, todo % nb
        out = u[0][r, :, None] * v[0][c, None, :]
        for uk, vk in zip(u[1:], v[1:]):
            out += uk[r, :, None] * vk[c, None, :]
        hi, lo = float(out.max()), float(out.min())
        if np.isnan(hi):
            return hi    # as the max over the full grid would
        peak = max(peak, hi, -lo)
        bound[todo] = -1.0
        # once the peak is infinite, blocks of an infinite bound may still
        # hide a NaN (inf - inf)
        todo = np.flatnonzero(bound > peak if peak < np.inf else bound == np.inf)
    return peak
