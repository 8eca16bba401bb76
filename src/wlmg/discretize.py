"""Finite-difference assembly of -div(a grad u) on the unit interval/square.

The conservative midpoint scheme is used: the flux coefficient on the edge
between two nodes is the diffusion coefficient sampled at the edge midpoint.
The ``h^2`` factor is absorbed into the matrix, so the constant-coefficient
operator reduces exactly to the banded algebra matrix of ``2 - 2cos(t)``
per dimension, and right-hand sides are scaled by ``h^2`` instead.

``build_problem`` samples the coefficient once and splits its matrix as

    A(a) = a_min * M(2 - 2cos) + R,    R = A(a) - a_min * M(2 - 2cos),

with ``a_min`` the minimum of the sampled coefficient values, which makes
``R`` positive semidefinite (it checks the signs that make it so).  For
periodic/reflective boundaries the structured part gets a Strang rank-one
correction; the solved operator is then ``a_min * (M + gamma e e^T / N) + R``,
positive definite.  ``assemble`` gives ``A`` as CSR, and ``split`` splits
and certifies an ``A`` a caller brings.
"""

from __future__ import annotations

import ast
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .structured import (AlgebraKind, StructuredOperator, _nonzero_diagonals, dia_from_csr,
                         integer_sizes)
from .symbols import CosineSymbol, TensorSymbol

__all__ = [
    "BoundaryCondition", "GridSpec", "DiffusionCoefficient", "AssembledProblem",
    "assemble", "split", "build_problem", "build_rhs", "make_coefficient", "algebra_for_bc",
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
    ``x_i = (i - 1/2) h``.  A size that is not an integer (a float, a
    ``bool``), or a ``bc`` that ``BoundaryCondition`` does not take (it
    takes ``"dirichlet"``), raises a ``ValueError`` naming it.
    """

    sizes: tuple
    bc: BoundaryCondition

    def __post_init__(self):
        object.__setattr__(self, "sizes", sizes := integer_sizes(self.sizes))
        try:
            object.__setattr__(self, "bc", BoundaryCondition(self.bc))
        except ValueError:
            raise ValueError(f"unknown boundary condition {self.bc!r}; use one of "
                             f"{', '.join(b.value for b in BoundaryCondition)}") from None
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


# the names an expression may look up besides x and y, each numpy's
_EXPR_NAMES = {name: getattr(np, name) for name in (
    "exp", "log", "sqrt", "abs", "sin", "cos", "tanh", "where", "minimum", "maximum", "pi", "e")}

# the coefficients of the paper's tables: {name: (expression on the unit
# interval, None for a preset of the unit square only; on the unit square)}
_PRESETS = {
    "a1": ("1.0", "1.0"),
    "a2": ("exp(x)", "exp(x + y)"),
    "a3": ("exp(x) + 1.0", "exp(x + y) + 2.0"),
    "a4": (None, "exp(x + abs(y - 0.5) ** 1.5)"),
    "a5": (None, "exp(x + abs(y - 0.5))"),
    "a6": (None, "where((x < 0.5) & (y < 0.5), 1.0, 10.0)"),
    "a7": (None, "where((x < 0.5) & (y < 0.5), 1.0, 100.0)"),
    "a8": (None, "where((x < 0.5) & (y < 0.5), 1.0, 1000.0)"),
}

TWO_D_ONLY_PRESETS = tuple(name for name, (line, _) in _PRESETS.items() if line is None)


@functools.lru_cache(maxsize=64)     # more than the presets, in both dimensions
def _compile(expr: str, dim: int):
    """``expr`` compiled for a grid of ``dim`` dimensions; a preset once per
    process."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"coefficient expression {expr!r} does not parse: {exc.msg}") from exc
    nodes = list(ast.walk(tree))
    # the names and attributes it reads, a lambda's or a comprehension's included
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    unknown = sorted(names - set(_EXPR_NAMES) - {"x", "y"})
    if unknown:
        raise ValueError(f"name {unknown[0]!r} not allowed in coefficient expressions")
    if "y" in names and dim != 2:
        raise ValueError(f"coefficient expression {expr!r} uses y but the problem "
                         "is one-dimensional")
    if any(isinstance(node, ast.Subscript) for node in nodes):
        raise ValueError(f"coefficient expression {expr!r} may not index or slice: x and "
                         "y hold the sample points in an order of the library's choosing")
    return compile(tree, "<coefficient>", "eval")


def make_coefficient(spec, dim: int) -> DiffusionCoefficient:
    """Resolve a coefficient: a callable, or a string, which is a preset
    name, ``a2k:<k>`` (``a2`` plus ``10^k``) or an expression in ``x``
    (and ``y`` on the square).

    A preset is its expression in ``_PRESETS`` and keeps its name.  An
    expression may call and read the names of ``_EXPR_NAMES``; it may not
    index or slice ``x`` or ``y``, whose layout is the sampler's.  A value
    of the sample points' shape is returned as it is, any other one
    broadcast to a new array.  An expression that does not parse, indexes,
    looks up another name or uses ``y`` on the interval, whose evaluation
    raises an ``ArithmeticError`` or a ``TypeError``, or whose value does
    not broadcast to the sample points' shape, raises a ``ValueError``
    naming it (one that overflows says so, one of the wrong shape names
    both shapes).  A ``dim`` other than 1 or 2 raises a ``ValueError``
    naming it.
    """
    if dim not in (1, 2):
        raise ValueError(f"coefficients are defined on the unit interval or square: "
                         f"dim must be 1 or 2, not {dim!r}")
    if isinstance(spec, DiffusionCoefficient):
        return spec
    if callable(spec):
        return DiffusionCoefficient(spec)
    name = expr = str(spec).strip()
    if name.startswith("a2k"):
        try:
            k = int(name.split(":", 1)[1])
            shift = 10.0 ** k
        except (IndexError, ValueError):
            raise ValueError(f"malformed preset {name!r}; use a2k:<k>") from None
        except OverflowError:
            raise ValueError(f"preset {name!r}: the shift 10^{k} overflows a float") from None
        name, expr = f"a2k:{k}", f"{_PRESETS['a2'][dim - 1]} + {shift!r}"
    elif name in _PRESETS:
        expr = _PRESETS[name][dim - 1]
        if expr is None:
            raise ValueError(f"preset {name} is defined on the unit square only")
    code = _compile(expr, dim)

    def func(*coords):
        try:
            value = eval(code, {"__builtins__": {}, **_EXPR_NAMES}, dict(zip("xy", coords)))
        except OverflowError:
            raise ValueError(f"coefficient expression {expr!r} overflows a float") from None
        except (ArithmeticError, TypeError) as exc:
            raise ValueError(f"coefficient expression {expr!r} fails: {exc}") from exc
        shape = np.shape(coords[0])
        if np.shape(value) == shape:
            return value
        try:
            return np.broadcast_to(value, shape).copy()
        except ValueError:
            raise ValueError(f"coefficient expression {expr!r} has a value of shape "
                             f"{np.shape(value)}, which does not broadcast to the sample "
                             f"points' shape {shape}") from None

    return DiffusionCoefficient(func, name=name)


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


def _stencil_table(grid: GridSpec, samples: list) -> tuple:
    """The conservative stencil stored by diagonals: ``(offsets, table)``,
    offsets ascending, ``table[k, j] = A[j - offsets[k], j]`` (the layout of
    ``sp.dia_array``), +0.0 off the stencil (as ``dia_from_csr`` reads it).

    Each band is written straight into its table row.  ``A`` is symmetric
    bit for bit, its two mirror entries being one sample, so the row of
    offset ``-o`` holds ``A[j + o, j] = A[j, j + o]``: the band of
    ``A[i, i + o]`` at each node ``i``, which is written in grid order.
    """
    dirichlet = grid.bc is BoundaryCondition.DIRICHLET
    periodic = grid.bc is BoundaryCondition.PERIODIC
    offsets = {0}
    for r, n in enumerate(grid.sizes):
        stride = math.prod(grid.sizes[r + 1:])
        offsets |= {stride, -stride}
        if periodic:    # the last node's right and the first node's left edge wrap
            offsets |= {stride * (n - 1), -stride * (n - 1)}
    offsets = sorted(offsets)
    table = np.zeros((len(offsets), grid.n_total))
    band_of = {-o: row.reshape(grid.sizes) for o, row in zip(offsets, table)}
    diag = band_of[0]
    for r, c in enumerate(samples):
        n, stride = grid.sizes[r], math.prod(grid.sizes[r + 1:])
        # each node's edge to its right and from its left neighbour along r,
        # 0 where it has none; R, L, D view the bands with r as axis 0
        right, left = band_of[stride], band_of[-stride]
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
            np.subtract(0.0, band, out=band)     # +0.0 where no edge, not -0.0
            if periodic:    # the wrapping edge moves to the band at -offset (n - 1)
                wrap = np.moveaxis(band_of[-offset * (n - 1)], r, 0)
                wrap[end] = np.moveaxis(band, r, 0)[end]
                np.moveaxis(band, r, 0)[end] = 0.0
    return offsets, table


def _least_sample(coeff: DiffusionCoefficient, samples: list) -> float:
    """``a_min``, the least of ``coeff``'s finite ``samples``; raises a
    ``ValueError`` naming ``coeff`` if it is not a positive normal float
    (``R``'s sign and the structured part's scale both rest on it)."""
    if (a_min := float(min(c.min() for c in samples))) < np.finfo(float).tiny:
        raise ValueError(f"coefficient {coeff.name!r} has the least sample {a_min!r}; it must "
                         f"be positive and normal, at least {np.finfo(float).tiny:.17g}")
    return a_min


def _stencil(grid: GridSpec, coeff: DiffusionCoefficient) -> tuple:
    """``(offsets, table, a_min)``: ``coeff`` sampled once, its stencil's
    table (``_stencil_table``) and its least sample (``_least_sample``).
    Raises a ``ValueError`` naming the coefficient if a node's diagonal, the
    sum of its edges' samples, overflows."""
    samples = _edge_samples(grid, coeff)
    a_min = _least_sample(coeff, samples)
    with np.errstate(over="ignore"):    # the off-diagonals are the finite samples
        offsets, table = _stencil_table(grid, samples)
    if not np.isfinite(table[offsets.index(0)]).all():
        raise ValueError(f"coefficient {coeff.name!r} overflows a float in the stencil: "
                         "a node's diagonal, the sum of its edge samples, is inf")
    return offsets, table, a_min


def assemble(grid: GridSpec, coeff) -> sp.csr_array:
    """Assemble the h^2-scaled stiffness matrix of -div(a grad u).

    The (2d+1)-point stencil is written band by band straight into the table
    of its diagonals (``_stencil``), and SciPy's ``tocsr`` reads the CSR
    arrays off it, dropping zeros.  Raises a ``ValueError`` naming the
    coefficient if a sample is NaN or inf, if the least one is not a
    positive normal float, if a callable returns a shape other than its
    points', or if a node's diagonal, the sum of its edges' samples,
    overflows.
    """
    offsets, table, _ = _stencil(grid, make_coefficient(coeff, grid.dim))
    # every sample is positive, so the nonzero entries are exactly the stencil's
    return sp.dia_array((table, offsets), shape=(grid.n_total,) * 2).tocsr()


@dataclass
class AssembledProblem:
    """Structured-plus-correction splitting of an assembled operator.

    The full (solved) operator is ``a_min * S + R``, ``S`` the matrix of
    ``structured``; for periodic/reflective grids ``structured`` carries the
    Strang rank-one term, so the full operator is symmetric positive
    definite.  ``correction`` is ``R`` by diagonals, ``{offset: band}``
    with ``band[i] = R[i, i + offset]``, offsets ascending, as on every
    coarse level.  ``operator`` is ``A`` as the ``sp.dia_array`` the finest
    level multiplies by, in the layout every coarse level's
    ``dia_from_bands`` writes: the stencil's own table for
    ``build_problem``, a caller's ``A`` read straight into it
    (``structured.dia_from_csr``) for ``split``; ``A`` as CSR is not kept.
    ``build_problem`` and ``split`` build every instance.
    """

    grid: GridSpec
    a_min: float
    structured: StructuredOperator
    correction: dict
    operator: sp.dia_array


def laplace_symbol(dim: int) -> TensorSymbol:
    return TensorSymbol.separable_sum([CosineSymbol([2.0, -1.0])] * dim)


def build_problem(grid: GridSpec, coeff) -> AssembledProblem:
    """The splitting of ``coeff``'s matrix on ``grid``, sampled once.

    The stencil's own table (``_stencil``) is kept as ``operator``, its rows
    of zeros left out (``structured._nonzero_diagonals``), and ``a_min`` is
    its least sample; ``R`` is formed from that table as ``split`` forms it
    (``_splitting``).  Its arrays equal ``split(assemble(grid, coeff), grid,
    coeff)``'s bit for bit, and it raises the ``ValueError``s ``assemble``
    raises.  ``A`` is symmetric bit for bit by construction (its two mirror
    entries are one sample), so only ``R``'s sign checks are made.
    """
    coeff = make_coefficient(coeff, grid.dim)
    offsets, table, a_min = _stencil(grid, coeff)
    return _splitting(grid, coeff, a_min, _nonzero_diagonals(table, offsets, grid.n_total))


def split(A: sp.csr_array, grid: GridSpec, coeff) -> AssembledProblem:
    """Split a caller's ``A = a_min * M(2-2cos per dim) + R`` with ``R``
    sparse and PSD, certifying that ``A`` fits ``coeff``; ``build_problem``
    builds the same problem from the coefficient alone.

    ``A``'s diagonals are read once, straight into the table of the
    ``sp.dia_array`` the problem keeps (``structured.dia_from_csr``), and the
    symmetry check and ``R`` (``_splitting``) read views of that table.
    ``a_min`` is the least coefficient sample.  The problem keeps the table,
    not ``A``; a sparse ``A`` other than a canonical CSR array is read
    through a canonical copy, and one of another real dtype through a
    float64 copy.

    Raises ``ValueError`` if ``A`` is not N-by-N for the grid, naming the
    first stored entry, in row order, that is NaN, infinite or has an
    imaginary part (a complex ``A`` is refused whatever its entries), if
    ``A`` is not symmetric bit for bit (tested on its diagonals; ``mgm``
    factors a level's CSR as its transpose, and the Galerkin coarsening
    mirrors half the diagonals), and, naming the coefficient, if its least
    sample is not a positive normal float or if ``R`` fails ``_splitting``'s
    checks.
    """
    coeff = make_coefficient(coeff, grid.dim)
    if not isinstance(A, sp.csr_array) or not A.has_canonical_format:
        A = sp.csr_array(A, copy=True)
        A.sum_duplicates()
    N = grid.n_total
    if A.shape != (N, N):
        raise ValueError(f"A has shape {A.shape}; the grid {grid.sizes} needs ({N}, {N})")
    _check_entries(A)
    A = A.astype(np.float64, copy=False)
    a_min = _least_sample(coeff, _edge_samples(grid, coeff))
    operator = dia_from_csr(A)
    table = dict(zip(operator.offsets.tolist(), operator.data))     # A[j - o, j] at j
    for o in sorted({abs(o) for o in table} - {0}):     # A[i, i + o] == A[i + o, i]
        upper = table[o][o:] if o in table else np.zeros(N - o)
        lower = table[-o][:N - o] if -o in table else np.zeros(N - o)
        if not np.array_equal(upper, lower):
            i = int(np.flatnonzero(upper != lower)[0])
            raise ValueError(f"A is not symmetric: A[{i}, {i + o}] = {float(A[i, i + o])!r} "
                             f"but A[{i + o}, {i}] = {float(A[i + o, i])!r}")
    return _splitting(grid, coeff, a_min, operator)


def _splitting(grid: GridSpec, coeff, a_min: float, operator) -> AssembledProblem:
    """The problem of the symmetric ``A`` stored by diagonals as
    ``operator``, split at ``a_min``.

    ``R`` is formed band by band, each band once: each of ``M``'s bands
    (``StructuredOperator.bands``) becomes ``R``'s in place, ``A``'s band
    minus ``a_min`` times ``M``'s, and a diagonal of ``A`` off ``M``'s is
    copied; a diagonal of ``R`` with no nonzero entry is left out.  Raises
    a ``ValueError`` naming the coefficient unless ``R`` has no positive
    off-diagonal entry and no row sum below ``-8 (2d + 1) u A_ii``
    (``u = eps / 2``), which make the symmetric ``R`` PSD.  Both hold for
    the stencil of ``coeff``: an off-diagonal ``a_min - a_e`` rounds a
    difference <= 0, and a row sum, >= 0 exactly, carries the rounding of
    ``A_ii``'s sum of 2d edges and, per entry, of ``a_min M_ij``, the
    difference and the sum: less than the bound, as ``sum_j |A_ij|`` and
    ``a_min sum_j |M_ij|`` are <= ``2 A_ii``.
    """
    N = grid.n_total
    kind = algebra_for_bc(grid.bc)
    base = StructuredOperator(kind, grid.sizes, laplace_symbol(grid.dim))
    table = dict(zip(operator.offsets.tolist(), operator.data))     # A[j - o, j] at j
    R = base.bands()
    for o, band in R.items():       # A's band, 0 off the matrix, minus a_min M's
        band *= a_min
        lo, hi = max(0, -o), N - max(0, o)
        on = table[o][lo + o:hi + o] if o in table else 0.0
        for a, part in ((0.0, band[:lo]), (on, band[lo:hi]), (0.0, band[hi:])):
            np.subtract(a, part, out=part)
    for o in table.keys() - R.keys():
        lo, hi = max(0, -o), N - max(0, o)
        R[o] = np.zeros(N)
        R[o][lo:hi] = table[o][lo + o:hi + o]
    # a diagonal with no nonzero entry is left out, as a CSR difference drops it
    R = {o: R[o] for o in sorted(R) if R[o].any()}
    positive = max((band.max() for o, band in R.items() if o != 0), default=0.0)
    rows = np.zeros(N)
    for band in R.values():
        rows += band
    # the least row sum allowed, -4 (2d + 1) eps |A_ii|, formed in place
    floor = np.abs(table[0]) if 0 in table else np.zeros(N)
    floor *= -4 * (2 * grid.dim + 1) * np.finfo(float).eps
    low = np.flatnonzero(rows < floor)
    if positive > 0.0 or low.size:
        fault = (f"the positive off-diagonal entry {positive:.3g}" if positive > 0.0 else
                 f"row {low[0]} summing to {rows[low[0]]:.3g}, below {floor[low[0]]:.3g}")
        raise ValueError(f"A does not fit coefficient {coeff.name!r}: R = A - a_min M has "
                         f"{fault}, so it is not positive semidefinite")
    structured = base if kind is AlgebraKind.TAU else base.strang_correct()
    return AssembledProblem(grid, a_min, structured, R, operator)


def _check_entries(A: sp.csr_array):
    """Raise a ``ValueError`` naming the first stored entry of ``A``, in row
    order, that is NaN, infinite or has an imaginary part; a complex ``A``
    is refused whatever its entries."""
    data = A.data
    bad = np.isfinite(data)
    np.logical_not(bad, out=bad)
    if data.dtype.kind == "c":
        bad |= data.imag != 0.0
    if bad.any():
        k = int(np.argmax(bad))
        row = int(np.searchsorted(A.indptr, k, side="right")) - 1
        raise ValueError(f"A must be real and finite, but A[{row}, {A.indices[k]}] = "
                         f"{data[k].item()!r}")
    if data.dtype.kind == "c":
        raise ValueError(f"A must be real, not of dtype {data.dtype}")


def build_rhs(grid: GridSpec, mode="ones", seed: int | None = None) -> np.ndarray:
    """Right-hand sides: ``ones`` (h^2-scaled) or ``random`` (standard
    normal, drawn from ``seed``, which it requires: no seed or a negative
    integer raises a ``ValueError`` naming it)."""
    N = grid.n_total
    if mode == "ones":
        scale = math.prod(grid.spacing(r) ** 2 for r in range(grid.dim)) ** (1.0 / grid.dim)
        return scale * np.ones(N)
    if mode == "random":
        # without a seed every call would draw a different vector; numpy's
        # error for a negative one names neither it nor the seed
        if seed is None or isinstance(seed, (int, np.integer)) and seed < 0:
            raise ValueError(f"random mode needs a non-negative integer seed, not {seed}")
        return np.random.default_rng(seed).standard_normal(N)
    raise ValueError(f"unknown rhs mode {mode!r}")
