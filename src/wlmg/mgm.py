"""Two-grid and V-cycle engines over the structured-plus-correction splitting.

``build_hierarchy`` runs the pre-computing phase once, for one
``SolverConfig``: per-level structured symbols (by folding), sparse
corrections (by Galerkin products computed diagonal by diagonal, each
dropped once the next level's exists), the damping of a Richardson slot
and the diagonal of a preconditioned CG slot on the levels whose
configuration has one, Gauss-Seidel triangles, and the coarsest direct
solver.
Every level matrix is born as diagonals, stored by ``dia_from_bands``: a
coarse level adds the structured part's bands and the correction's band by
band, and the finest level takes the assembled matrix's, as ``split`` read
them.  Each level keeps the configuration it was built for, and
``LevelHierarchy`` resolves from it, once per level, which smoother each
slot runs and the nominal operation count of each phase of a cycle
(``costs``, ``cycle_cost``).  Hierarchies are immutable afterwards, apart
from the CSR ``combined`` a level reads off its diagonals on first access
for callers outside the library; no module of it reads one.  A hierarchy
keeps no reference to the caller's ``A``.
Every solve owns its iterate, residual history and work vectors, so
concurrent solves against one hierarchy are safe.

Every level product on the solve path is a product with the level operator
stored by diagonals (``sp.dia_array``): the residual, the smoothers, and
the two triangles of Gauss-Seidel, which are slices of those diagonals.
The grid transfers multiply by ``p^T`` (CSR) and ``p`` (CSC) over one set
of arrays.  Each product is a ``structured.BoundProduct``, built at set-up
(``_Level._product``, the third slot of ``_Level._gs``, the projector's
two), which calls SciPy's compiled kernel directly, not ``@``, whose
dispatch costs about 3 us per product: for the 10 products of a 63^2
``richardson+cg`` cycle, about a sixth of its 0.17 ms.  The result is the
same bit for bit, in a new array per product.
The coarsest level is one SuperLU factor; with a rank-one term it factors
the bordered matrix ``[[A, u], [u^T, -1]]``, ``u = sqrt(gamma/N) e``,
whose solve with ``[b; 0]`` solves ``(A + u u^T) x = b`` without forming
the dense term; set-up writes it into the CSC arrays of ``A``.
Outside its factorizations a level is read only as stored, by diagonals:
SciPy's ``tocsr`` reads a CSR off them only for that factor (the CSC of
the symmetric ``A``, not kept), for the Gauss-Seidel triangle, and for
``combined``.  The nominal counts count the diagonals' nonzeros.

Forward Gauss-Seidel solves with one stored sparse lower triangle per
level on all three boundary conditions (``_Level._ensure_gs``), one
triangular solve per step: ``tril(A)``, or with the rank-one term of the
periodic and reflective levels the 2N-by-2N triangle that carries the
sweep's running sum as unknowns of its own, interleaved with ``x``.  A
triangle in its natural order is its own LU factor, so no factorization
runs (``structured.TriangularFactor``).

The cycle makes no level product whose result it already knows.  Coarse
levels start from the zero iterate, passed as ``x=None``, so the first
smoothing step takes ``b`` as its residual; the outer iteration hands its
stop-test residual to the next cycle, whose Richardson or CG pre-smoother
consumes it.  Both leave every result bit-identical to the cycle that
recomputes them.  A CG post-smoother updates the cycle's own correction in
place, and on level 0 hands the stop test the residual its recurrence
forms, ``r - alpha A z`` from the product ``A z`` it makes anyway, so the
stop test makes no product of its own.  That residual is one step deep
(``r`` is a fresh ``b - A x``), so it stays within rounding of
``b - A x``, though not bit for bit.  The nominal costs still count every
product.
"""

from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import AssembledProblem
from .smoothers import cg_steps, richardson, splitting_diagonal
from .structured import (AlgebraKind, BoundProduct, StructuredOperator, TriangularFactor,
                         dia_from_bands)
from .transfer import Projector, coarse_size, coarsen_structured, galerkin_sparse

__all__ = ["SolverConfig", "SolveReport", "LevelHierarchy",
           "build_hierarchy", "vcycle", "solve"]

METHODS = ("tgm", "mgm")
SMOOTHERS = ("richardson", "gauss-seidel", "cg")
SCALINGS = ("global", "diagonal")
CG_PRECONDITIONERS = ("none", "diagonal")


@dataclass(frozen=True)
class SolverConfig:
    """Cycle type, smoother slots (one step each), Richardson damping.

    ``richardson_scaling`` selects how the Richardson step is damped:

    * ``"global"``:   x + omega (b - A x),    omega = c / (sup|symbol| + ||R||_inf)
    * ``"diagonal"``: x + c D^{-1} (b - A x), D = diag(sup|symbol| + sum_j |R_ij|)

    with c = 2 for pre- and c = 1 for post-smoothing, ``symbol`` the level's
    structured symbol and ``R`` its sparse correction.  Both come from one
    bound of the splitting: the structured part is at most ``sup|symbol|``
    and ``R`` at most its row-wise absolute sums (Gershgorin), so
    ``A <= D`` and ``lambda_max(D^{-1} A) <= 1``.  The global form takes the
    largest row of that bound for every row; the diagonal form keeps each
    row's own.  The two coincide when ``R = 0`` (the unit coefficient).
    """

    method: str = "mgm"            # "tgm" (two levels) or "mgm" (V-cycle)
    pre: str = "richardson"
    post: str = "richardson"
    cg_preconditioner: str = "none"
    richardson_scaling: str = "global"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for name in (self.pre, self.post):
            if name not in SMOOTHERS:
                raise ValueError(f"unknown smoother {name!r}")
        if self.richardson_scaling not in SCALINGS:
            raise ValueError(f"unknown scaling {self.richardson_scaling!r}")
        if self.cg_preconditioner not in CG_PRECONDITIONERS:
            raise ValueError(f"unknown CG preconditioner {self.cg_preconditioner!r}")

    @property
    def is_linear(self) -> bool:
        return "cg" not in (self.pre, self.post)


@dataclass
class SolveReport:
    """Outcome of one outer run; ``operations = iterations * H.cycle_cost``;
    with ``b = 0`` no cycle runs and the final residual is 0."""

    iterations: int
    residuals: list
    converged: bool
    operations: int
    wall_time: float

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else 0.0


class _Level:
    """Per-level data produced in the pre-computing phase for ``config``.

    ``operator`` is the level matrix without its rank-one term, stored by
    diagonals (``dia_from_bands``): on a coarse level the structured part's
    bands plus those of ``correction``, the correction by diagonals, which
    only this reads; on the finest level those of the assembled ``A``.
    ``_product``, its bound product, is what ``matvec`` multiplies by.
    ``rho = gamma / N`` is the weight of the rank-one term, None without
    one.  A level computes only what the steps of its two slots read.  One
    with a Richardson slot damps it from the splitting bound ``d``:
    ``omega_pre, omega_post = 2, 1 / max(d)`` (global scaling), or ``2, 1``
    and ``dinv = 1 / d`` (diagonal).  One whose CG slot runs the diagonal
    preconditioner holds ``jacobi_inv = 1 / diag(A + rho e e^T)``.  What a
    level does not use is None, all four on the coarsest level, which
    smooths with neither slot.
    """

    def __init__(self, structured: StructuredOperator, correction: dict,
                 config: SolverConfig, projector: Projector | None = None,
                 operator: sp.dia_array | None = None):
        self.structured = structured
        self.sizes = structured.sizes
        self.n = structured.n_total
        self.gamma = structured.rank_one
        self.rho = None if self.gamma is None else self.gamma / self.n
        self.config = config
        self.projector = projector
        slots = () if projector is None else (config.pre, config.post)
        self.omega_pre = self.omega_post = self.dinv = self.jacobi_inv = None
        if "richardson" in slots:
            # A <= diag(d) row by row: the global step damps by the largest row,
            # the diagonal one by each row's own, so lambda_max(D^{-1} A) <= 1
            d = splitting_diagonal(structured.symbol.sup_norm(), correction, self.n)
            diagonal = config.richardson_scaling == "diagonal"
            bound = 1.0 if diagonal else float(d.max())
            self.omega_pre, self.omega_post = 2.0 / bound, 1.0 / bound
            self.dinv = 1.0 / d if diagonal else None
            del d       # freed before the operator is formed
        if operator is None:        # the structured part's bands plus the correction's
            bands = structured.bands()
            for o, band in correction.items():
                bands[o] = bands[o] + band if o in bands else band
            operator = dia_from_bands(bands, self.n)
            if not np.isfinite(operator.data).all():
                raise ValueError(f"the coarse level of sizes {self.sizes} overflows: "
                                 f"its matrix holds an inf or a NaN")
        self.operator = operator
        self._product = BoundProduct(operator)
        self.nnz = int(np.count_nonzero(operator.data))     # the padding holds zeros
        if "cg" in slots and config.cg_preconditioner == "diagonal":
            diag = operator.diagonal()
            self.jacobi_inv = 1.0 / (diag if self.rho is None else diag + self.rho)
        self._combined = None
        self._gs = None
        self._direct = None

    @property
    def combined(self) -> sp.csr_array:
        """The level matrix without its rank-one term as CSR, read off the
        diagonals and cached, for callers outside the library: no module of
        it reads this form."""
        if self._combined is None:
            self._combined = self.operator.tocsr()
        return self._combined

    # -- operator ---------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self._product(x)
        if self.gamma is not None:
            y += self.gamma * x.sum() / self.n
        return y

    # -- Gauss-Seidel -----------------------------------------------------
    def _ensure_gs(self):
        """Store the forward Gauss-Seidel triangle ``F`` once, on every level kind.

        The sweep on ``A + rho e e^T`` (``rho = gamma / N``) solves with
        ``tril(A) + rho C``, ``C = tril(e e^T)`` the dense prefix-sum
        matrix.  Without a rank-one term ``F`` is ``tril(A)``.  ``A`` is
        symmetric bit for bit (``split`` certifies level 0, the Galerkin
        product mirrors it), so ``F^T`` is ``triu(A)``, a view of the
        diagonals: SciPy's ``tocsr`` reads its CSR off them, dropping zeros,
        and its transpose is ``F``'s CSC, whose columns each start with their
        pivot.  With a rank-one term ``F`` carries the running sum
        ``s_i = x_0 + ... + x_i`` as unknowns of its own, interleaved as
        ``(x_0, s_0, x_1, s_1, ...)``: row ``2i`` is
        ``sum_{j<i} A_ij x_j + (A_ii + rho) x_i + rho s_{i-1} = r_i`` and
        row ``2i + 1`` is ``s_i - s_{i-1} - x_i = 0``, so ``F`` is 2N by 2N
        and lower triangular (``_interleaved`` writes its CSC off the
        diagonals).  In natural order ``F`` is its own LU factor, so no
        factorization runs: ``structured.TriangularFactor`` scales the
        columns in place and solves with them.

        The diagonals are sliced once, into the pivots (offset 0) and
        ``triu(A, 1)``, a view of the offsets > 0, which ``_interleaved``
        reads.  The tuple is ``(kind, factor, product, nnz)``: the product is
        the bound ``triu(A, 1)``, which the step multiplies by and whose
        ``matrix`` the nominal count counts, and ``nnz`` the factor's
        entries as ``L`` and ``U``.  The rank-one weight is ``self.rho``.
        """
        if self._gs is None:
            A, n, rho = self.operator, self.n, self.rho
            first = int(np.searchsorted(A.offsets, 0))      # triu(A): the offsets >= 0
            data, offsets = A.data[first:], A.offsets[first:]
            stored = int(offsets.size > 0 and offsets[0] == 0)
            pivots = data[0] if stored else np.zeros(n)
            upper = sp.dia_array((data[stored:], offsets[stored:]), shape=A.shape)
            if rho is not None:
                pivots = pivots + rho
            zero = np.flatnonzero(pivots == 0.0)
            if zero.size:
                raise ZeroDivisionError(
                    f"Gauss-Seidel pivot of row {zero[0]} is zero (diagonal of A + rho e e^T)")
            if rho is None:
                lower = sp.dia_array((data, offsets), shape=A.shape).tocsr().T
            else:
                lower = _interleaved(upper, pivots, rho)
            # L, the triangle scaled to a unit diagonal, and U, its diagonal,
            # count nnz + rows entries, though the factor stores them in nnz
            self._gs = ("triangular", TriangularFactor(lower), BoundProduct(upper),
                        lower.nnz + lower.shape[0])
        return self._gs

    def gauss_seidel_step(self, x, b):
        """One forward Gauss-Seidel sweep on ``A + rho e e^T`` with the
        triangle ``LevelHierarchy`` stored, one triangular solve;
        ``x=None`` is the zero iterate, whose right-hand side is ``b``
        itself.

        The sweep solves ``(tril(A) + rho C) x+ = r`` with
        ``r = b - triu(A, 1) x - rho t`` and ``t_i = sum_{j > i} x_j``.  On a
        rank-one level ``r`` fills the even slots of a zero 2N vector, the
        right-hand side of the interleaved triangle (the odd rows are
        ``s_i - s_{i-1} - x_i = 0``), and the even entries of its solution
        are ``x+``.  The solve is the row-by-row sweep, which carries the
        same running sum, to rounding, with no refinement step: 1.9e-16
        relative at most on the sweep tests' periodic and reflective grids,
        ``a8`` and a coefficient jump of 1000 included.
        """
        _, factor, upper, _ = self._gs
        if x is None:       # the solve leaves b as it is
            rhs = b
        else:
            rhs = upper(x)
            np.subtract(b, rhs, out=rhs)
        if self.rho is None:
            return factor.solve(rhs)
        if x is not None:
            rhs -= self.rho * (x.sum() - np.cumsum(x))
        z = np.zeros(2 * self.n)
        z[::2] = rhs
        return factor.solve(z)[::2].copy()

    # -- coarsest direct solve --------------------------------------------
    def _ensure_direct(self):
        """Factor the coarsest level once with SuperLU.

        Without a rank-one term the factored matrix is ``A``, the transpose
        of its CSR (``A`` is symmetric), not kept as ``combined``.  With one
        it is the bordered ``[[A, u], [u^T, -1]]``, ``u = sqrt(gamma/N) e``,
        written into ``A``'s CSC arrays: each column gains ``u`` on row N,
        and a last column ``u, ..., u, -1`` follows.
        """
        if self._direct is None:
            A = self.operator.tocsr().T
            if self.rho is not None:
                A = _bordered(A, np.sqrt(self.rho))
            lu = spla.splu(A)
            self._direct = ("sparse", lu, lu.L.nnz + lu.U.nnz)
        return self._direct

    def direct_solve(self, b):
        _, lu, _ = self._direct
        if self.gamma is None:
            return lu.solve(b)
        return lu.solve(np.append(b, 0.0))[:self.n]


def _interleaved(upper: sp.dia_array, pivots: np.ndarray, rho: float) -> sp.csc_array:
    """The CSC arrays of the 2N-by-2N Gauss-Seidel triangle of
    ``A + rho e e^T`` on the unknowns ``(x_0, s_0, x_1, s_1, ...)``, from
    ``upper``, ``triu(A, 1)`` as a view of the level's diagonals.

    Column ``2j`` (``x_j``) holds ``pivots[j] = A_jj + rho`` on row ``2j``,
    ``-1`` on row ``2j + 1`` and ``A_ij``, ``i > j``, on row ``2i``: row
    ``j`` of ``triu(A, 1)``, whose CSR SciPy's ``tocsr`` reads off the
    diagonals (``A`` is symmetric), zeros dropped.  Column ``2j + 1``
    (``s_j``) holds ``1``, ``rho`` on row ``2j + 2`` and ``-1`` on row
    ``2j + 3``; the last holds only its ``1``.  With ``ptr`` the CSR's row
    pointers, column ``2j`` starts at ``5j + ptr[j]`` and column ``2j + 1``
    at ``5j + ptr[j + 1] + 2``: the five fixed entries of each ``j`` are
    written by position and the CSR's entries, in order, into the slots
    left.  Every temporary is at most N long, apart from the CSR and the
    mask of those slots.
    """
    n = upper.shape[0]
    strict = upper.tocsr()
    ptr = strict.indptr
    nnz = int(ptr[-1]) + 5 * n - 2
    # the column starts as numpy's index type, which scatters without a cast
    x_at, s_at = np.arange(0, 5 * n, 5) + ptr[:-1], np.arange(2, 5 * n, 5) + ptr[1:]
    indptr = np.empty(2 * n + 1, dtype=np.intc)
    indptr[0:-1:2], indptr[1::2], indptr[-1] = x_at, s_at, nnz
    data, indices = np.empty(nnz), np.empty(nnz, dtype=np.intc)
    keep = np.ones(nnz, dtype=bool)        # the slots left for triu(A, 1)'s entries
    rows = np.arange(0, 2 * n, 2, dtype=np.intc)
    # the five fixed entries: column starts, slot in the column, row - 2j, value
    for start, slot, shift, value in ((x_at, 0, 0, pivots), (x_at, 1, 1, -1.0),
                                      (s_at, 0, 1, 1.0), (s_at[:-1], 1, 2, rho),
                                      (s_at[:-1], 2, 3, -1.0)):
        at = start + slot
        data[at] = value
        indices[at] = rows[:at.size] + shift
        keep[at] = False
    del x_at, s_at, at, rows        # freed before the CSR's entries are placed
    data[keep] = strict.data
    strict.indices *= 2
    indices[keep] = strict.indices
    return sp.csc_array((data, indices, indptr), shape=(2 * n, 2 * n))


def _bordered(A: sp.csc_array, u: float) -> sp.csc_matrix:
    """``[[A, u e], [u e^T, -1]]`` from the CSC arrays of the N-by-N ``A``."""
    n, index = A.shape[0], A.indptr.dtype
    indptr = np.empty(n + 2, dtype=index)
    indptr[:-1] = A.indptr + np.arange(n + 1, dtype=index)
    indptr[-1] = indptr[-2] + n + 1
    indices = np.concatenate([np.insert(A.indices, A.indptr[1:], n),
                              np.arange(n + 1, dtype=A.indices.dtype)])
    data = np.concatenate([np.insert(A.data, A.indptr[1:], u), np.full(n, u), [-1.0]])
    return sp.csc_matrix((data, indices, indptr), shape=(n + 1, n + 1))


class LevelHierarchy:
    """Immutable ladder of levels, and the configuration they were built for,
    ``levels[0].config``.

    ``smoothers[s]`` holds the pre- and post-smoothing of level ``s`` and
    ``costs[s]`` the nominal operation count of each phase of a cycle on
    it (on the finest level ``outer`` is the outer residual and its norm),
    both resolved once from the configuration.  ``cycle_cost`` is one cycle
    plus the outer residual.  A level product counts two per nonzero entry
    of the CSR form (not the padding of the diagonals), plus 3N for a
    rank-one term; a Gauss-Seidel step counts its product with
    ``triu(A, 1)``, the entries of its triangle as ``L`` and ``U`` (nnz
    plus its order, N, or 2N on a rank-one level, whose step also counts
    5N for the running sums of ``x``), and the coarse solve those of its
    factor, so the table builds both; a transfer counts 8 per fine unknown.
    The table is nominal: it counts every step's products, also those the
    cycle skips on a zero iterate or a residual it already has.
    """

    def __init__(self, levels):
        self.levels = levels
        self.config = levels[0].config
        self.smoothers, self.costs = [], []
        for s, lev in enumerate(levels):
            n = lev.n
            matvec = 2 * lev.nnz + (3 * n if lev.gamma is not None else 0)
            costs = {"outer": matvec + 2 * n} if s == 0 else {}
            if lev.projector is None:
                costs["coarse"] = lev._ensure_direct()[2]
            else:
                pre, pre_cost = _smoothing(lev, True, matvec)
                post, post_cost = _smoothing(lev, False, matvec)
                costs.update(pre=pre_cost, residual=matvec, restrict=8 * n,
                             prolong=8 * n + 2 * n, post=post_cost)
                self.smoothers.append((pre, post))
            self.costs.append(costs)
        self.cycle_cost = sum(sum(c.values()) for c in self.costs)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def _smoothing(lev: _Level, pre: bool, matvec: int):
    """The pre- (or post-) smoothing step of ``lev`` as
    ``step(x, b, r, overwrite_x=False, residual=False)``, and its nominal
    cost given that of one level product, ``matvec``.

    ``x=None`` is the zero iterate and ``r``, if not None, is ``b - A x``,
    which Richardson and CG consume instead of recomputing it; Gauss-Seidel
    needs ``b - triu(A, 1) x`` and ignores it.  ``overwrite_x`` hands the
    step ``x`` to update in place, which only CG, the one step that would
    copy it, takes up.  With ``residual`` the step returns ``(x, r)``,
    ``r`` the residual of the new iterate that CG's recurrence forms and
    None after the other two.  With neither flag the step is pure.  The
    cost still counts the products these skip: it is a nominal figure per
    step.  The smoother is that of ``lev.config``, the damping and diagonals
    the level's own; the functions and ``lev.matvec`` are looked up by name
    on every call.
    """
    name, n = (lev.config.pre if pre else lev.config.post), lev.n
    if name == "cg":
        dinv = lev.jacobi_inv

        def step(x, b, r, overwrite_x=False, residual=False):
            return cg_steps(lev.matvec, x, b, dinv=dinv, r=r, overwrite_x=overwrite_x,
                            residual=residual)
        return step, 2 * matvec + (10 if dinv is None else 12) * n
    if name == "gauss-seidel":
        _, _, upper, factor_nnz = lev._ensure_gs()
        # b - triu(A, 1) x and one solve; a rank-one level also subtracts
        # rho (sum x - cumsum x), four more passes over x and one over r
        cost = (2 * int(np.count_nonzero(upper.matrix.data)) + 2 * factor_nnz
                + (n if lev.gamma is None else 6 * n))

        def step(x, b, r, overwrite_x=False, residual=False):
            x = lev.gauss_seidel_step(x, b)
            return (x, None) if residual else x
        return step, cost
    omega, dinv = (lev.omega_pre if pre else lev.omega_post), lev.dinv

    def step(x, b, r, overwrite_x=False, residual=False):
        x = richardson(lev.matvec, x, b, omega, dinv=dinv, r=r)
        return (x, None) if residual else x
    return step, matvec + (3 if dinv is None else 4) * n


def _size_chain(kind: AlgebraKind, sizes, method: str):
    target = 15 if kind is AlgebraKind.TAU else 16
    chain = [tuple(sizes)]
    if method == "tgm":
        try:
            chain.append(tuple(coarse_size(kind, n) for n in sizes))
        except ValueError as exc:
            raise ValueError(f"size chain infeasible for TGM: {exc}") from None
        return chain
    while all(n > target for n in chain[-1]):
        try:
            chain.append(tuple(coarse_size(kind, n) for n in chain[-1]))
        except ValueError as exc:
            if len(chain) == 1:
                outcome = "method='mgm' is one sparse direct solve, not a V-cycle"
            else:
                outcome = (f"the coarsest level, {chain[-1]}, is a sparse direct "
                           f"solve of {int(np.prod(chain[-1]))} unknowns")
            warnings.warn(
                f"grid {chain[-1]} cannot be coarsened ({exc}), so the chain "
                f"{' -> '.join(map(str, chain))} stops above the coarsest size "
                f"{target}: {outcome}", RuntimeWarning, stacklevel=3)
            break
    return chain


def build_hierarchy(problem: AssembledProblem, config: SolverConfig | None = None
                    ) -> LevelHierarchy:
    """Pre-computing phase: all level data, computed once.

    ``config`` defaults to ``SolverConfig()``; anything but a
    ``SolverConfig`` raises a ``ValueError``.  With ``method="mgm"`` a chain
    that stops above the coarsest size (15 Dirichlet, 16 otherwise) because
    a grid cannot be halved warns with a ``RuntimeWarning`` naming the
    coarsest sizes reached.  A grid that cannot be halved once gives one
    level, solved directly.  A coarse level whose matrix overflows to an
    inf or a NaN raises a ``ValueError`` naming its sizes.
    """
    config = SolverConfig() if config is None else config
    if not isinstance(config, SolverConfig):
        raise ValueError(f"config must be a SolverConfig, got {type(config).__name__}")
    base = problem.structured
    chain = _size_chain(base.kind, base.sizes, config.method)

    scaled = StructuredOperator(
        base.kind, base.sizes, base.symbol.scaled(problem.a_min),
        rank_one=None if base.rank_one is None else problem.a_min * base.rank_one)
    projectors = [Projector(base.kind, sizes) for sizes in chain[:-1]] + [None]
    structured, correction, operator = scaled, problem.correction, problem.operator
    levels = []
    # a coarse level whose entries overflow is refused by _Level, without
    # the warnings of the products that overflowed on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for proj in projectors:
            levels.append(_Level(structured, correction, config, proj, operator))
            if proj is not None:
                structured = coarsen_structured(structured, proj)
                correction = galerkin_sparse(correction, proj)
                operator = None
    return LevelHierarchy(levels)


def vcycle(H: LevelHierarchy, s: int, x: np.ndarray | None, b: np.ndarray,
           r: np.ndarray | None = None, *, residual: bool = False):
    """One cycle of the recursive scheme starting at level ``s``.

    ``x=None`` is the zero iterate, with which every coarse level starts.
    ``r``, if given, is ``b - A x`` (the outer iteration's stop-test
    residual); the pre-smoother consumes it.  Either saves the
    pre-smoother's product with ``A``, and the result is the same bit for
    bit.  The post-smoother updates the cycle's own correction in place.
    ``x`` and ``b`` are not modified.  With ``residual`` the cycle returns
    ``(x, r)``, ``r`` the residual of the new iterate as a CG post-smoother
    forms it, ``r - alpha A z`` from its product ``A z``, and None after any
    other smoother or a direct solve.
    """
    lev = H.levels[s]
    if s == H.depth:
        x = lev.direct_solve(b)
        return (x, None) if residual else x
    pre, post = H.smoothers[s]
    x = pre(x, b, r)
    r = lev.matvec(x)
    np.subtract(b, r, out=r)
    r_coarse = lev.projector.restrict(r)
    y_coarse = vcycle(H, s + 1, None, r_coarse)
    e = lev.projector.prolong(y_coarse)
    e += x
    return post(e, b, None, overwrite_x=True, residual=residual)


def _real_vector(v, n: int, name: str) -> np.ndarray:
    """``v`` as a float vector of length ``n``, or a ``ValueError`` naming it."""
    v = np.asarray(v)
    if v.shape != (n,):
        raise ValueError(f"{name} must be a vector of length {n}, got shape {v.shape}")
    if v.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real, got dtype {v.dtype}")
    return np.asarray(v, dtype=float)


def solve(H: LevelHierarchy, b: np.ndarray, tol: float = 1e-7,
          max_iter: int | None = None, x0: np.ndarray | None = None):
    """Outer iteration from ``x0`` (default zero) until the relative
    Euclidean residual drops below ``tol``; returns ``(x, SolveReport)``.

    The stop test reads the residual a CG post-smoother formed on level 0
    (``r - alpha A z``, one step deep, so within rounding of ``b - A x``)
    and otherwise computes ``b - A x``; either seeds the next cycle's
    pre-smoother.  A
    non-finite relative residual ends the run at once, with
    ``converged=False`` and that residual last in the history; ``b = 0``
    returns ``x = 0`` with no cycle.  Raises ``ValueError`` before the first
    cycle if ``b`` or ``x0`` is not a real vector of the finest level's
    length or holds a NaN or an infinity, if ``tol`` is not a positive real
    number, or if ``max_iter`` is not an integer >= 1 (``True`` is not an
    iteration count).
    """
    n = H.levels[0].n
    if max_iter is None:
        max_iter = n
    if not isinstance(max_iter, numbers.Integral) or isinstance(max_iter, bool):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    b = _real_vector(b, n, "b")
    x = None
    if x0 is not None:
        x = np.array(_real_vector(x0, n, "x0"))
        if not np.isfinite(x).all():
            raise ValueError("x0 holds a NaN or inf")
    t0 = time.perf_counter()
    bnorm = float(np.linalg.norm(b))
    if not np.isfinite(bnorm):
        raise ValueError(f"b holds a NaN or inf, or its norm overflows (norm {bnorm})")
    if bnorm == 0.0:        # A is SPD: x = 0 solves it exactly, whatever x0 is
        return np.zeros(n), SolveReport(0, [], True, 0, time.perf_counter() - t0)
    finest = H.levels[0]
    residuals = []
    converged = False
    it = 0
    r = None
    for it in range(1, max_iter + 1):
        x, r = vcycle(H, 0, x, b, r, residual=True)
        if r is None:
            r = finest.matvec(x)
            np.subtract(b, r, out=r)
        relres = float(np.linalg.norm(r)) / bnorm
        residuals.append(relres)
        if relres < tol:
            converged = True
            break
        if not np.isfinite(relres):
            break
    return x, SolveReport(it, residuals, converged, it * H.cycle_cost,
                          time.perf_counter() - t0)

