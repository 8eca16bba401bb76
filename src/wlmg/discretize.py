"""Finite-difference assembly of -div(a grad u) on the unit interval/square.

The conservative midpoint scheme is used: the flux coefficient on the edge
between two nodes is the diffusion coefficient sampled at the edge midpoint.
The ``h^2`` factor is absorbed into the matrix, so the constant-coefficient
operator reduces exactly to the banded algebra matrix of ``2 - 2cos(t)``
per dimension, and right-hand sides are scaled by ``h^2`` instead.

``split`` decomposes the assembled matrix as

    A(a) = a_min * M(2 - 2cos) + R,    R = A(a) - a_min * M(2 - 2cos),

with ``a_min`` the minimum of the sampled coefficient values, which makes
``R`` positive semidefinite.  For periodic/reflective boundaries the
structured part gets a Strang rank-one correction; the solved operator is
then ``a_min * (M + gamma e e^T / N) + R``, which is positive definite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .structured import AlgebraKind, StructuredOperator, csr_from_bands
from .symbols import CosineSymbol, TensorSymbol

__all__ = [
    "BoundaryCondition", "GridSpec", "DiffusionCoefficient", "AssembledProblem",
    "assemble", "split", "build_rhs", "make_coefficient", "algebra_for_bc",
]


class BoundaryCondition(enum.Enum):
    DIRICHLET = "dirichlet"
    PERIODIC = "periodic"
    REFLECTIVE = "reflective"


def algebra_for_bc(bc: BoundaryCondition) -> AlgebraKind:
    return {
        BoundaryCondition.DIRICHLET: AlgebraKind.TAU,
        BoundaryCondition.PERIODIC: AlgebraKind.CIRCULANT,
        BoundaryCondition.REFLECTIVE: AlgebraKind.DCT3,
    }[bc]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on (0,1)^d with one of three boundary conditions.

    Dirichlet grids have ``h = 1/(n+1)`` and nodes ``x_i = i h``; periodic
    and reflective grids are cell-centered with ``h = 1/n`` and nodes
    ``x_i = (i - 1/2) h``.
    """

    sizes: tuple
    bc: BoundaryCondition

    def __post_init__(self):
        sizes = tuple(int(n) for n in (self.sizes if np.iterable(self.sizes) else (self.sizes,)))
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) not in (1, 2):
            raise ValueError("only 1-D and 2-D grids are supported")
        if any(n < 3 for n in sizes):
            raise ValueError("grid sizes must be at least 3")

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @property
    def n_total(self) -> int:
        return int(np.prod(self.sizes))

    def spacing(self, r: int) -> float:
        n = self.sizes[r]
        return 1.0 / (n + 1) if self.bc is BoundaryCondition.DIRICHLET else 1.0 / n

    def nodes(self, r: int) -> np.ndarray:
        n = self.sizes[r]
        h = self.spacing(r)
        if self.bc is BoundaryCondition.DIRICHLET:
            return h * np.arange(1, n + 1)
        return h * (np.arange(1, n + 1) - 0.5)


@dataclass(frozen=True)
class DiffusionCoefficient:
    """Point-evaluable real diffusion coefficient."""

    func: object
    name: str = "custom"

    def __call__(self, *coords):
        c = np.asarray(self.func(*coords))
        if c.dtype.kind == "c":
            raise ValueError(f"coefficient {self.name!r} is complex (dtype {c.dtype}); "
                             f"it must be real")
        return np.asarray(c, dtype=float)


def _piecewise(delta):
    def f(x, y):
        return np.where((x < 0.5) & (y < 0.5), 1.0, float(delta))
    return f


_PRESETS = {
    "a1": lambda d: (lambda *xs: np.ones_like(np.asarray(xs[0], dtype=float))),
    "a2": lambda d: (lambda *xs: np.exp(sum(xs))),
    "a3": lambda d: ((lambda x: np.exp(x) + 1.0) if d == 1
                     else (lambda x, y: np.exp(x + y) + 2.0)),
    "a4": lambda d: (lambda x, y: np.exp(x + np.abs(y - 0.5) ** 1.5)),
    "a5": lambda d: (lambda x, y: np.exp(x + np.abs(y - 0.5))),
    "a6": lambda d: _piecewise(10.0),
    "a7": lambda d: _piecewise(100.0),
    "a8": lambda d: _piecewise(1000.0),
}

TWO_D_ONLY_PRESETS = ("a4", "a5", "a6", "a7", "a8")
PRESET_NAMES = tuple(_PRESETS) + ("a2k:<k>",)


def make_coefficient(spec, dim: int) -> DiffusionCoefficient:
    """Resolve a preset name, ``a2k:<k>`` string, or callable into a coefficient."""
    if isinstance(spec, DiffusionCoefficient):
        return spec
    if callable(spec):
        return DiffusionCoefficient(spec)
    name = str(spec).strip()
    if name.startswith("a2k"):
        try:
            k = int(name.split(":", 1)[1])
        except (IndexError, ValueError):
            raise ValueError(f"malformed preset {name!r}; use a2k:<k>") from None
        shift = 10.0 ** k
        return DiffusionCoefficient(lambda *xs: np.exp(sum(xs)) + shift, name=f"a2k:{k}")
    if name in _PRESETS:
        if name in TWO_D_ONLY_PRESETS and dim != 2:
            raise ValueError(f"preset {name} is defined on the unit square only")
        return DiffusionCoefficient(_PRESETS[name](dim), name=name)
    raise ValueError(f"unknown coefficient preset {name!r}")


def _sample(coeff: DiffusionCoefficient, *coords) -> np.ndarray:
    """``coeff`` at the points ``coords``; raises unless it gives one finite
    value per point."""
    c = coeff(*coords)
    if c.shape != coords[0].shape:
        raise ValueError(f"coefficient {coeff.name!r} returned shape {c.shape} "
                         f"for sample points of shape {coords[0].shape}")
    if not np.isfinite(c).all():
        raise ValueError(f"coefficient {coeff.name!r} is NaN or inf at a sample point")
    return c


def _edge_samples(grid: GridSpec, coeff: DiffusionCoefficient) -> list:
    """Midpoint coefficient samples of the conservative-stencil edges.

    One array per sweep direction ``r``, edges along axis 0 (then the nodes
    of the other direction in 2-D).  Along ``r`` a Dirichlet grid has
    ``n + 1`` edges, edge ``k`` joining nodes ``k - 1`` and ``k``, the first
    and the last one a node and the boundary; a periodic grid has ``n``,
    edge ``k`` joining nodes ``k`` and ``k + 1 mod n``; a reflective grid has
    ``n - 1``, edge ``k`` joining nodes ``k`` and ``k + 1`` (no flux through
    the boundary).
    """
    nodes = [grid.nodes(r) for r in range(grid.dim)]
    samples = []
    for r in range(grid.dim):
        h, x = grid.spacing(r), nodes[r]
        if grid.bc is BoundaryCondition.DIRICHLET:
            mids = np.concatenate([[x[0] - h / 2], x + h / 2])
        elif grid.bc is BoundaryCondition.PERIODIC:
            mids = x + h / 2
        else:
            mids = x[:-1] + h / 2
        if grid.dim == 1:
            samples.append(_sample(coeff, mids))
            continue
        E, O = np.meshgrid(mids, nodes[1 - r], indexing="ij")   # (n_edges, n_other)
        samples.append(_sample(coeff, E, O) if r == 0 else _sample(coeff, O, E))
    return samples


def _stencil_bands(grid: GridSpec, samples: list) -> dict:
    """The conservative stencil by diagonals: ``{o: band}`` with ``band``
    holding ``A[i, i + o]`` at each node ``i``, 0 where the stencil has no
    entry."""
    dirichlet = grid.bc is BoundaryCondition.DIRICHLET
    periodic = grid.bc is BoundaryCondition.PERIODIC
    diag = np.zeros(grid.sizes)
    bands = {0: diag}
    for r, c in enumerate(samples):
        n, stride = grid.sizes[r], math.prod(grid.sizes[r + 1:])
        # each node's edge to its right and from its left neighbour along r,
        # 0 where it has none; R, L, D view the arrays with r as axis 0
        right, left = np.zeros(grid.sizes), np.zeros(grid.sizes)
        R, L, D = (np.moveaxis(a, r, 0) for a in (right, left, diag))
        if dirichlet:
            R[:-1], L[1:] = c[1:-1], c[1:-1]
        elif periodic:
            R[:], L[1:], L[0] = c, c[:-1], c[-1]
        else:
            R[:-1], L[1:] = c, c
        # a node's diagonal adds its right edge, its left edge, then its
        # Dirichlet boundary edge: the order in which the COO oracle's
        # triples sum, so that the 2-D sums round alike, bit for bit
        D += R
        D += L
        if dirichlet:
            D[0] += c[0]
            D[-1] += c[-1]
        for offset, band, end in ((stride, right, -1), (-stride, left, 0)):
            np.negative(band, out=band)
            if periodic:    # the last node's right and the first node's left edge wrap
                wrap = np.zeros(grid.sizes)
                np.moveaxis(wrap, r, 0)[end] = np.moveaxis(band, r, 0)[end]
                np.moveaxis(band, r, 0)[end] = 0.0
                bands[-offset * (n - 1)] = wrap
            bands[offset] = band
    return bands


def assemble(grid: GridSpec, coeff) -> sp.csr_array:
    """Assemble the h^2-scaled stiffness matrix of -div(a grad u).

    The (2d+1)-point stencil is built band by band, and ``csr_from_bands``
    reads the CSR arrays off the bands.  Raises ``ValueError``
    naming the coefficient if a sample is NaN, inf or not positive, or if a
    callable returns a shape other than its points'.
    """
    coeff = make_coefficient(coeff, grid.dim)
    samples = _edge_samples(grid, coeff)
    if any(np.any(c <= 0.0) for c in samples):
        raise ValueError("diffusion coefficient must be positive at all sample points")
    # every sample is positive, so the nonzero entries are exactly the stencil's;
    # no name keeps the bands, so csr_from_bands can free them
    return csr_from_bands(
        {o: band.ravel() for o, band in _stencil_bands(grid, samples).items()}, grid.n_total)


def coefficient_samples(grid: GridSpec, coeff) -> np.ndarray:
    """All midpoint coefficient samples used by ``assemble``."""
    coeff = make_coefficient(coeff, grid.dim)
    return np.concatenate([c.ravel() for c in _edge_samples(grid, coeff)])


@dataclass
class AssembledProblem:
    """Structured-plus-correction splitting of an assembled operator.

    The full (solved) operator is ``a_min * S + R``, ``S`` the matrix of
    ``structured``; for periodic/reflective grids ``structured`` carries the
    Strang rank-one term, so the full operator is symmetric positive
    definite.  ``matrix`` is the assembled ``A`` itself, which equals
    ``a_min * S + R`` without the rank-one term up to the rounding of ``R``;
    the finest level of a hierarchy multiplies by it.  ``split`` builds
    every instance.
    """

    grid: GridSpec
    a_min: float
    structured: StructuredOperator
    correction: sp.csr_array
    matrix: sp.csr_array
    rhs: np.ndarray | None = None
    coefficient: DiffusionCoefficient | None = None

    def full_dense(self) -> np.ndarray:
        return self.a_min * self.structured.materialize_dense() + self.correction.toarray()


def laplace_symbol(dim: int) -> TensorSymbol:
    return TensorSymbol.separable_sum([CosineSymbol([2.0, -1.0])] * dim)


def split(A: sp.csr_array, grid: GridSpec, coeff) -> AssembledProblem:
    """Split ``A = a_min * M(2-2cos per dim) + R`` with ``R`` sparse and PSD.

    The problem keeps ``A`` itself (as a canonical CSR array; ``assemble``
    returns one) rather than a copy.
    """
    coeff = make_coefficient(coeff, grid.dim)
    if not isinstance(A, sp.csr_array) or not A.has_canonical_format:
        A = sp.csr_array(A, copy=True)
        A.sum_duplicates()
    a_min = float(coefficient_samples(grid, coeff).min())
    kind = algebra_for_bc(grid.bc)
    base = StructuredOperator(kind, grid.sizes, laplace_symbol(grid.dim))
    R = sp.csr_array(A - a_min * base.to_sparse())
    R.sort_indices()
    structured = base if kind is AlgebraKind.TAU else base.strang_correct()
    return AssembledProblem(grid=grid, a_min=a_min, structured=structured,
                            correction=R, matrix=A, coefficient=coeff)


def build_rhs(grid: GridSpec, mode="ones", seed: int | None = None,
              u_true: np.ndarray | None = None, operator=None) -> np.ndarray:
    """Right-hand sides: ``ones`` (h^2-scaled), ``random`` (seeded), ``manufactured``."""
    N = grid.n_total
    if mode == "ones":
        scale = math.prod(grid.spacing(r) ** 2 for r in range(grid.dim)) ** (1.0 / grid.dim)
        return scale * np.ones(N)
    if mode == "random":
        return np.random.default_rng(seed).standard_normal(N)
    if mode == "manufactured":
        if u_true is None:
            raise ValueError("manufactured mode needs u_true")
        if operator is None:
            operator = assemble(grid, "a1")
        if callable(operator):
            return operator(np.asarray(u_true, dtype=float))
        return operator @ np.asarray(u_true, dtype=float)
    raise ValueError(f"unknown rhs mode {mode!r}")
