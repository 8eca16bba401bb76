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

from .structured import AlgebraKind, StructuredOperator
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


def _edge_groups(grid: GridSpec, coeff: DiffusionCoefficient):
    """Conservative-stencil edges per sweep direction.

    Returns a list of ``(u, v, c)`` arrays of flat endpoint indices and the
    midpoint coefficient sample of each edge; ``-1`` marks a Dirichlet
    boundary endpoint (the edge then contributes to the diagonal only).
    """
    nodes = [grid.nodes(r) for r in range(grid.dim)]
    flat = np.arange(grid.n_total).reshape(grid.sizes)
    groups = []
    for r in range(grid.dim):
        n = grid.sizes[r]
        h = grid.spacing(r)
        x = nodes[r]
        if grid.bc is BoundaryCondition.DIRICHLET:
            mids = np.concatenate([[x[0] - h / 2], x + h / 2])
            left = np.arange(-1, n)
            right = np.concatenate([np.arange(n), [-1]])
        elif grid.bc is BoundaryCondition.PERIODIC:
            mids = x + h / 2
            left = np.arange(n)
            right = (np.arange(n) + 1) % n
        else:  # reflective: zero flux through the boundary, no boundary edges
            mids = x[:-1] + h / 2
            left = np.arange(n - 1)
            right = np.arange(1, n)

        if grid.dim == 1:
            groups.append((left, right, _sample(coeff, mids)))
            continue

        other = 1 - r
        y = nodes[other]
        E, O = np.meshgrid(mids, y, indexing="ij")   # (n_edges, n_other)
        c = _sample(coeff, E, O) if r == 0 else _sample(coeff, O, E)

        def endpoints(idx):
            g = np.take(flat, np.maximum(idx, 0), axis=r)
            if r == 1:
                g = g.T
            g = np.ascontiguousarray(g)
            g[idx < 0, :] = -1
            return g.ravel()

        groups.append((endpoints(left), endpoints(right), c.ravel()))
    return groups


def assemble(grid: GridSpec, coeff) -> sp.csr_array:
    """Assemble the h^2-scaled stiffness matrix of -div(a grad u).

    Raises ``ValueError`` naming the coefficient if a sample is NaN, inf or
    not positive, or if a callable returns a shape other than its points'.
    """
    coeff = make_coefficient(coeff, grid.dim)
    groups = _edge_groups(grid, coeff)
    if any(np.any(c <= 0.0) for _, _, c in groups):
        raise ValueError("diffusion coefficient must be positive at all sample points")
    rows, cols, vals = [], [], []
    for u, v, c in groups:
        both = (u >= 0) & (v >= 0)
        ub, vb, cb = u[both], v[both], c[both]
        rows += [ub, vb, ub, vb]
        cols += [ub, vb, vb, ub]
        vals += [cb, cb, -cb, -cb]
        bd = (u >= 0) & (v < 0)
        rows.append(u[bd]); cols.append(u[bd]); vals.append(c[bd])
        bd = (v >= 0) & (u < 0)
        rows.append(v[bd]); cols.append(v[bd]); vals.append(c[bd])
    N = grid.n_total
    A = sp.coo_array((np.concatenate(vals),
                      (np.concatenate(rows), np.concatenate(cols))),
                     shape=(N, N)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def coefficient_samples(grid: GridSpec, coeff) -> np.ndarray:
    """All midpoint coefficient samples used by ``assemble``."""
    coeff = make_coefficient(coeff, grid.dim)
    return np.concatenate([c for _, _, c in _edge_groups(grid, coeff)])


@dataclass
class AssembledProblem:
    """Structured-plus-correction splitting of an assembled operator.

    The full (solved) operator is ``a_min * S + R``, ``S`` the matrix of
    ``structured``; for periodic/reflective grids ``structured`` carries the
    Strang rank-one term, so the full operator is symmetric positive
    definite.
    """

    grid: GridSpec
    a_min: float
    structured: StructuredOperator
    correction: sp.csr_array
    rhs: np.ndarray | None = None
    coefficient: DiffusionCoefficient | None = None

    def full_dense(self) -> np.ndarray:
        return self.a_min * self.structured.materialize_dense() + self.correction.toarray()


def laplace_symbol(dim: int) -> TensorSymbol:
    return TensorSymbol.separable_sum([CosineSymbol([2.0, -1.0])] * dim)


def split(A: sp.csr_array, grid: GridSpec, coeff) -> AssembledProblem:
    """Split ``A = a_min * M(2-2cos per dim) + R`` with ``R`` sparse and PSD."""
    coeff = make_coefficient(coeff, grid.dim)
    a_min = float(coefficient_samples(grid, coeff).min())
    kind = algebra_for_bc(grid.bc)
    base = StructuredOperator(kind, grid.sizes, laplace_symbol(grid.dim))
    R = sp.csr_array(A - a_min * base.to_sparse())
    R.sort_indices()
    structured = base if kind is AlgebraKind.TAU else base.strang_correct()
    return AssembledProblem(grid=grid, a_min=a_min, structured=structured,
                            correction=R, coefficient=coeff)


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
