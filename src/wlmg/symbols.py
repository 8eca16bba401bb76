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

# rows of the 2-D angle grid that TensorSymbol.sup_norm holds at a time
_SUP_BLOCK = 16


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

    def sup_norm(self, npoints: int = 1025) -> float:
        """Max of ``|f|`` over a dense angle grid including the endpoint pi."""
        t = np.linspace(0.0, np.pi, npoints)
        return float(np.max(np.abs(self.eval(t))))

    def __mul__(self, other):
        if isinstance(other, CosineSymbol):
            return self.product(other)
        return self.scaled(float(other))

    __rmul__ = __mul__

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
        """Max of the absolute value over a dense tensor angle grid.

        In 2-D the grid is summed ``_SUP_BLOCK`` rows at a time into two
        reused buffers, each entry by the sums of ``eval_grid`` without its
        leading ``0 +`` (which changes at most the sign of a zero), so the
        value is the same without the full ``npoints^2`` grid in memory.
        """
        t = np.linspace(0.0, np.pi, npoints)
        if self.dim == 1:
            return float(np.max(np.abs(self.eval_grid([t]))))
        (u0, v0), *rest = [(g1.eval(t), g2.eval(t)) for g1, g2 in self.terms]
        block, term = np.empty((2, min(_SUP_BLOCK, npoints), npoints))
        peaks = []
        for lo in range(0, npoints, _SUP_BLOCK):
            m = min(_SUP_BLOCK, npoints - lo)
            out, tmp = block[:m], term[:m]
            np.multiply.outer(u0[lo:lo + m], v0, out=out)
            for u, v in rest:
                np.multiply.outer(u[lo:lo + m], v, out=tmp)
                out += tmp
            peaks += [out.max(), -out.min()]
        return float(np.max(peaks))

    def scaled(self, alpha: float) -> "TensorSymbol":
        terms = [(term[0].scaled(alpha),) + term[1:] for term in self.terms]
        return TensorSymbol(self.dim, terms)

    def __repr__(self):
        return f"TensorSymbol(dim={self.dim}, terms={self.terms!r})"
