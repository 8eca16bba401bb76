"""Property tests of the algebraic identities the solver relies on.

* ``assemble`` builds the stencil band by band; it equals the COO assembly
  of ``oracles.assemble_coo`` bit for bit, and the CSR that
  ``oracles.csr_from_bands`` gathers off the bands
  (``oracles.assemble_bands``), index types included.
* ``split`` reads a CSR matrix's diagonals into bands, those of
  ``oracles.bands_of`` bit for bit, an explicitly stored all-zero diagonal
  included; products with their ``dia_from_bands`` equal the CSR products
  bit for bit.
* ``Projector`` builds ``p`` from its taps; it equals
  ``oracles.projector_kron``, the paper's ``s * M(2 + 2cos) * T`` with
  Kronecker products in 2-D, bit for bit, and so do both transfers.
* ``Projector.restrict`` is the exact adjoint of ``Projector.prolong``.
* Smoothing steps never modify ``x`` or ``b``; ``x=None`` steps as from
  zero and a given residual ``r = b - A x`` steps as without it, bit for
  bit (the given ``r`` is consumed).
* With a CG post-smoother ``solve`` stops on the CG step's recurrence
  residual ``r - alpha A z``; it is within the benchmark checker's
  rounding allowance of ``b - (A + rho e e^T) x`` recomputed, and on a
  zero residual or a breakdown the step returns its own ``r``.
* ``StructuredOperator.bands``, stored by ``dia_from_bands`` and read as
  CSR (``oracles.to_sparse``), builds band by band, in 1-D and 2-D; it
  equals the COO and Kronecker construction of
  ``oracles.sparse_matrix_coo`` and ``oracles.to_sparse_kron`` bit for bit,
  once the explicit zeros those store are eliminated.
* ``TensorSymbol.sup_norm`` skips blocks of the angle grid; it equals the
  max over the full grid exactly.
* The Galerkin symbol fold agrees with the triple product ``p^T M p``, and
  every Galerkin coarse level is symmetric positive definite.
* ``galerkin_sparse`` computes ``p^T R p`` diagonal by diagonal; it stores
  the nonzero pattern of ``oracles.galerkin_csr``, is symmetric bit for bit,
  and agrees with it up to rounding.
* Every level matrix equals its transpose bit for bit, periodic wrap
  diagonals included, and its CSR ``combined`` is the one
  ``oracles.csr_from_bands`` gathers off its diagonals.
* Set-up reads the Gauss-Seidel triangle as the transpose of the CSR of
  its transpose, off the diagonals of ``triu(A)``, or on periodic and
  reflective levels writes the interleaved 2N-by-2N triangle that carries
  the running sum off the diagonals, and it reads the coarse matrix
  (bordered there) from the CSR of ``A``; both equal SciPy's conversions,
  block stacking and sparse products in ``oracles.gs_triangle_product``
  and ``oracles.bordered_bmat`` bit for bit.
* ``wlmg bench`` is deterministic: two runs of one cell write the same CSV
  line.

Examples are derandomized, so every run checks the same cases.
"""

from functools import lru_cache

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import wlmg.mgm
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wlmg._tables import TABLES
from wlmg.cli import BenchRow, bench_cell, bench_rows_csv
from wlmg.discretize import (TWO_D_ONLY_PRESETS, BoundaryCondition, DiffusionCoefficient,
                             GridSpec, _read_bands, algebra_for_bc, assemble, split)
from wlmg.mgm import SMOOTHERS, SolverConfig, build_hierarchy, solve
from wlmg.smoothers import cg_steps
from wlmg.structured import AlgebraKind, StructuredOperator, dia_from_bands
from wlmg.symbols import CosineSymbol, TensorSymbol
from wlmg.transfer import Projector, coarsen_structured, galerkin_sparse

from oracles import (assemble_bands, assemble_coo, bands_of, bordered_bmat, correction_csr,
                     csr_from_bands, dense_operator, galerkin_csr, gs_triangle_product,
                     jump_1000, projector_kron, scaled_triangle, sparse_matrix_coo,
                     to_sparse, to_sparse_kron)

checked = settings(derandomize=True, database=None, deadline=None, max_examples=60)

PRESETS = ("a1", "a2", "a3", "a2k:1", "a2k:3") + TWO_D_ONLY_PRESETS


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def random_coefficients(draw, dim):
    """A positive callable: a scaled oscillation plus a jump across a line."""
    scale = draw(st.floats(1e-3, 1e3))
    freqs = draw(st.lists(st.floats(0.0, 20.0), min_size=dim, max_size=dim))
    jump = draw(st.floats(0.0, 1e4))
    cut = draw(st.floats(0.0, 1.0))

    def coefficient(*xs):
        wave = sum(np.sin(f * x) ** 2 for f, x in zip(freqs, xs))
        return scale * (1.0 + wave) + jump * (xs[-1] < cut)

    return DiffusionCoefficient(coefficient, name="random")


@st.composite
def grids_and_coefficients(draw):
    dim = draw(st.sampled_from([1, 2]))
    bc = draw(st.sampled_from(list(BoundaryCondition)))
    sizes = tuple(draw(st.integers(3, 40 if dim == 1 else 17)) for _ in range(dim))
    presets = [p for p in PRESETS if dim == 2 or p not in TWO_D_ONLY_PRESETS]
    coeff = draw(st.one_of(st.sampled_from(presets), random_coefficients(dim)))
    return GridSpec(sizes, bc), coeff


@checked
@given(grids_and_coefficients())
def test_band_assembly_equals_coo_oracle(case):
    """``assemble``'s CSR, which SciPy reads off the diagonals, is the COO
    assembly's, and the one ``oracles.csr_from_bands`` gathers off the bands: arrays
    and, for the latter, index types; it is flagged canonical."""
    grid, coeff = case
    got, want = assemble(grid, coeff), assemble_coo(grid, coeff)
    bands = assemble_bands(grid, coeff)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert same_bits(got.data, want.data)
    assert same_csr(got, bands)
    assert got.indptr.dtype == got.indices.dtype == bands.indices.dtype == bands.indptr.dtype
    assert got.has_canonical_format


def same_csr(got, want) -> bool:
    """Equal pattern and values, bit for bit; index types may differ."""
    return (got.shape == want.shape and np.array_equal(got.indptr, want.indptr)
            and np.array_equal(got.indices, want.indices) and same_bits(got.data, want.data))


@st.composite
def cosine_symbols(draw, max_degree):
    """Signed coefficients, about a third of them zero (of either sign);
    half the bands are the widest allowed."""
    m = draw(st.one_of(st.integers(0, max(max_degree, 0)), st.just(max(max_degree, 0))))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))
    return CosineSymbol(draw(st.lists(value, min_size=m + 1, max_size=m + 1)))


# the widest band each algebra's entry formulas take at size n is n + slack
BAND_SLACK = {AlgebraKind.TAU: 2, AlgebraKind.DCT3: 0, AlgebraKind.CIRCULANT: -1}


@st.composite
def structured_operators(draw):
    """1-3 terms of factors with bands up to the widest the size takes."""
    kind = draw(st.sampled_from(list(AlgebraKind)))
    dim = draw(st.sampled_from([1, 2]))
    sizes = draw(st.lists(st.integers(1, 14 if dim == 1 else 8), min_size=dim, max_size=dim))
    terms = [tuple(draw(cosine_symbols(n + BAND_SLACK[kind])) for n in sizes)
             for _ in range(draw(st.integers(1, 3)))]
    return StructuredOperator(kind, sizes, TensorSymbol(dim, terms))


@settings(checked, max_examples=100)
@given(structured_operators())
def test_band_matrices_equal_kron_oracle(op):
    """The bands as CSR store the nonzero entries of the oracles, which also
    store the zero entries a single term makes."""
    want = to_sparse_kron(op)
    want.eliminate_zeros()
    assert same_csr(to_sparse(op), want)
    for term in op.symbol.terms:
        for g, n in zip(term, op.sizes):
            factor = StructuredOperator(op.kind, (n,), TensorSymbol.from_1d(g))
            want = sparse_matrix_coo(op.kind, g, n)
            want.eliminate_zeros()
            assert same_csr(to_sparse(factor), want)


@st.composite
def tensor_symbols(draw):
    terms = [(draw(cosine_symbols(4)), draw(cosine_symbols(4)))
             for _ in range(draw(st.integers(1, 3)))]
    return TensorSymbol(2, terms)


@settings(checked, max_examples=40)
@given(tensor_symbols(), st.sampled_from([17, 100, 1025]))
@example(TensorSymbol(2, [(CosineSymbol([0.0]), CosineSymbol([1.0]))]), 1025)
@example(TensorSymbol(2, [(CosineSymbol([np.nan]), CosineSymbol([1.0]))]), 1025)
@example(TensorSymbol(2, [(CosineSymbol([1.0, 0.5]), CosineSymbol([2.0])),
                          (CosineSymbol([0.0]), CosineSymbol([np.nan]))]), 100)
@example(TensorSymbol(2, [(CosineSymbol([np.inf]), CosineSymbol([0.0]))]), 17)
# inf on the blocks with t2 < pi/2, NaN (inf - inf) past them
@example(TensorSymbol(2, [(CosineSymbol([np.inf]), CosineSymbol([1.0])),
                          (CosineSymbol([np.inf]), CosineSymbol([0.0, 0.5]))]), 1025)
def test_sup_norm_equals_the_full_grid_max(sym, npoints):
    t = np.linspace(0.0, np.pi, npoints)
    with np.errstate(invalid="ignore"):     # the inf * 0 and inf - inf examples
        expected = np.max(np.abs(sym.eval_grid([t, t])))
        assert np.array_equal(sym.sup_norm(npoints), expected, equal_nan=True)


@checked
@given(n=st.integers(1, 40), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       explicit_zero=st.booleans())
def test_products_by_diagonals_equal_csr_products(n, density, seed, explicit_zero):
    """``split``'s reader gives the bands of every diagonal that stores an
    entry, offsets ascending, a diagonal of stored zeros included; their
    ``dia_from_bands`` leaves out the diagonals with no nonzero entry."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    A = sp.csr_array(dense)
    if explicit_zero:       # one diagonal stored entry by entry, every entry 0
        o = int(rng.integers(-(n - 1), n))
        i = np.arange(max(0, -o), n - max(0, o))
        dense[i, i + o] = 0.0
        rows, cols = np.nonzero(dense)
        A = sp.coo_array((np.concatenate([dense[rows, cols], np.zeros(i.size)]),
                          (np.concatenate([rows, i]), np.concatenate([cols, i + o]))),
                         shape=(n, n)).tocsr()
        assert A.has_canonical_format and A.nnz - np.count_nonzero(A.data) == i.size
    want = bands_of(A)
    got = _read_bands(A)
    assert list(got) == sorted(want) and all(same_bits(got[o], want[o]) for o in want)
    if explicit_zero:
        assert o in got and not got[o].any()
    D = dia_from_bands(got, n)
    assert isinstance(D, sp.dia_array)
    assert D.offsets.tolist() == [o for o in sorted(want) if want[o].any()]
    for shift in (0.0, 1e3):
        x = rng.standard_normal(n) + shift
        assert same_bits(D @ x, A @ x)


VALID_SIZES = {AlgebraKind.TAU: st.integers(1, 15).map(lambda k: 2 * k + 1),
               AlgebraKind.CIRCULANT: st.integers(2, 16).map(lambda k: 2 * k),
               AlgebraKind.DCT3: st.integers(2, 16).map(lambda k: 2 * k)}


@st.composite
def projectors(draw):
    kind = draw(st.sampled_from(list(AlgebraKind)))
    dim = draw(st.sampled_from([1, 2]))
    sizes = draw(st.lists(VALID_SIZES[kind], min_size=dim, max_size=dim))
    return Projector(kind, sizes)


@checked
@given(projectors())
def test_restrict_is_the_exact_adjoint_of_prolong(proj):
    """The matrix that ``restrict`` applies is the transpose of the one
    ``prolong`` applies, entry for entry."""
    prolong = np.column_stack([proj.prolong(e) for e in np.eye(proj.n_coarse)])
    restrict = np.column_stack([proj.restrict(e) for e in np.eye(proj.n_fine)])
    assert same_bits(restrict, np.ascontiguousarray(prolong.T))


@settings(checked, max_examples=100)
@given(projectors(), st.integers(0, 2**32 - 1))
@example(Projector(AlgebraKind.TAU, (63, 31)), 0)
@example(Projector(AlgebraKind.CIRCULANT, (8, 16)), 0)
@example(Projector(AlgebraKind.CIRCULANT, (4,)), 0)
@example(Projector(AlgebraKind.DCT3, (4, 6)), 0)
@example(Projector(AlgebraKind.DCT3, (4,)), 0)
def test_projector_equals_the_kron_oracle(proj, seed):
    """``p``, built from the taps, is the paper's ``s * M(2 + 2cos) * T``
    (Kronecker products in 2-D): the same indices and values, bit for bit,
    and both transfers are the products with it.  ``restrict`` runs first,
    so it builds ``p`` itself."""
    want = projector_kron(proj.kind, proj.fine_sizes)
    rng = np.random.default_rng(seed)
    y, r = rng.standard_normal(proj.n_coarse), rng.standard_normal(proj.n_fine)
    assert same_bits(proj.restrict(r), sp.csr_array(want.T) @ r)
    assert same_bits(proj.prolong(y), want @ y)
    assert same_csr(sp.csr_array(proj.to_sparse()), want)


# sizes whose coarse grid takes the folded symbols of degree <= 2 below
COARSENABLE_SIZES = {AlgebraKind.TAU: st.integers(1, 10).map(lambda k: 2 * k + 1),
                     AlgebraKind.CIRCULANT: st.integers(4, 10).map(lambda k: 2 * k),
                     AlgebraKind.DCT3: st.integers(4, 10).map(lambda k: 2 * k)}


@st.composite
def coarsenable_operators(draw):
    kind = draw(st.sampled_from(list(AlgebraKind)))
    dim = draw(st.sampled_from([1, 2]))
    sizes = draw(st.lists(COARSENABLE_SIZES[kind], min_size=dim, max_size=dim))
    terms = [tuple(draw(cosine_symbols(2)) for _ in range(dim))
             for _ in range(draw(st.integers(1, 2)))]
    return StructuredOperator(kind, sizes, TensorSymbol(dim, terms))


@checked
@given(coarsenable_operators())
def test_symbol_fold_agrees_with_the_triple_product(op):
    proj = Projector(op.kind, op.sizes)
    p = proj.to_sparse()
    want = (p.T @ (to_sparse(op) @ p)).toarray()
    got = to_sparse(coarsen_structured(op, proj)).toarray()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@st.composite
def coarsenable_problems(draw):
    """Grids with at least one Galerkin coarse level."""
    bc = draw(st.sampled_from(list(BoundaryCondition)))
    dim = draw(st.sampled_from([1, 2]))
    odd = algebra_for_bc(bc) is AlgebraKind.TAU
    size = (st.integers(8, 40).map(lambda k: 2 * k + odd) if dim == 1
            else st.sampled_from([31, 63] if odd else [32, 64]))
    grid = GridSpec(tuple(draw(size) for _ in range(dim)), bc)
    presets = [p for p in PRESETS if dim == 2 or p not in TWO_D_ONLY_PRESETS]
    return grid, draw(st.one_of(st.sampled_from(presets), random_coefficients(dim)))


@pytest.mark.filterwarnings("ignore:grid .* cannot be coarsened:RuntimeWarning")
@settings(checked, max_examples=30)
@given(coarsenable_problems())
def test_galerkin_coarse_levels_are_symmetric_positive_definite(case):
    grid, coeff = case
    H = build_hierarchy(split(assemble(grid, coeff), grid, coeff))
    assume(H.n_levels > 1)
    for lev in H.levels[1:]:
        M = dense_operator(lev)
        assert np.array_equal(M, M.T)
        np.linalg.cholesky(M)       # raises unless positive definite


def coarsenable(kind, n: int) -> bool:
    return n >= 3 and n % 2 == 1 if kind is AlgebraKind.TAU else n >= 4 and n % 2 == 0


@st.composite
def random_symmetric(draw):
    """A random symmetric sparse matrix on a small grid, up to full width,
    and its projector."""
    kind = draw(st.sampled_from(list(AlgebraKind)))
    size = st.integers(2, 8).map(lambda k: 2 * k + (kind is AlgebraKind.TAU))
    proj = Projector(kind, tuple(draw(st.lists(size, min_size=1, max_size=2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = sp.random_array((proj.n_fine,) * 2, density=draw(st.floats(0.01, 0.5)), rng=rng,
                        format="csr")
    return sp.csr_array(R + R.T), proj


@st.composite
def corrections(draw):
    """A split's correction and its projector, or, if the coarse grid can be
    halved again, the oracle's coarse correction (a wider stencil) and the
    next projector.  2-D grids are small, square or not, or (63, 31) and
    (64, 32) either way round."""
    bc = draw(st.sampled_from(list(BoundaryCondition)))
    kind = algebra_for_bc(bc)
    odd = kind is AlgebraKind.TAU
    dim = draw(st.sampled_from([1, 2]))
    size = st.integers(2, 20).map(lambda k: 2 * k + odd)
    if dim == 1:
        sizes = (draw(size),)
    else:
        wide = [(63, 31), (31, 63)] if odd else [(64, 32), (32, 64)]
        sizes = draw(st.one_of(st.sampled_from(wide), st.tuples(size, size)))
    presets = [p for p in PRESETS if dim == 2 or p not in TWO_D_ONLY_PRESETS]
    coeff = draw(st.one_of(st.sampled_from(presets), random_coefficients(dim)))
    grid = GridSpec(sizes, bc)
    R = correction_csr(split(assemble(grid, coeff), grid, coeff))
    proj = Projector(kind, sizes)
    if draw(st.booleans()) and all(coarsenable(kind, n) for n in proj.coarse_sizes):
        R, proj = galerkin_csr(R, proj), Projector(kind, proj.coarse_sizes)
    return R, proj


def check_band_galerkin(R, proj):
    """``galerkin_sparse`` against ``oracles.galerkin_csr``: the same nonzero
    pattern, exact symmetry, and every band within 1e-15 of the largest
    entry of that band of ``|p|^T |R| |p|``, the sum of the magnitudes of
    the products that make each entry (the scale of their rounding)."""
    n = proj.n_coarse
    bands = bands_of(R)
    got = galerkin_sparse(bands, proj)
    assert all(same_bits(band, want) for band, want in zip(bands.values(),
                                                           bands_of(R).values()))
    G, want = csr_from_bands(dict(got), n), galerkin_csr(R, proj)
    assert np.array_equal(G.indptr, want.indptr) and np.array_equal(G.indices, want.indices)
    GT = sp.csr_array(G.T)
    GT.sort_indices()
    assert same_csr(GT, G)
    p = proj.to_sparse()
    scale, want = bands_of(abs(p).T @ (abs(R) @ abs(p))), bands_of(want)
    for o, band in got.items():
        err = np.abs(band - want.get(o, 0.0)).max()
        assert err <= 1e-15 * np.abs(scale.get(o, 0.0)).max(), o


@checked
@given(st.one_of(corrections(), random_symmetric()))
def test_band_galerkin_equals_csr_oracle(case):
    check_band_galerkin(*case)


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
@pytest.mark.parametrize("coeff", ["a2", "a7", "a8"])
def test_band_galerkin_equals_csr_oracle_on_rectangles(bc, coeff):
    sizes = (63, 31) if bc is BoundaryCondition.DIRICHLET else (64, 32)
    grid = GridSpec(sizes, bc)
    R = correction_csr(split(assemble(grid, coeff), grid, coeff))
    proj = Projector(algebra_for_bc(bc), sizes)
    check_band_galerkin(R, proj)
    check_band_galerkin(galerkin_csr(R, proj), Projector(proj.kind, proj.coarse_sizes))


@lru_cache(maxsize=None)
def smoothing_hierarchy(bc, dim, config):
    n = (63 if dim == 1 else 31) + (bc is not BoundaryCondition.DIRICHLET)
    grid = GridSpec((n,) * dim, bc)
    coeff = "a2" if dim == 1 else "a7"
    return build_hierarchy(split(assemble(grid, coeff), grid, coeff), config)


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("smoother", SMOOTHERS)
@pytest.mark.parametrize("zero_x, give_r", [(False, False), (True, False),
                                            (False, True), (True, True)],
                         ids=["x", "none", "x-r", "none-r"])
@settings(checked, max_examples=8)
@given(pre=st.booleans(), diagonal=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_smoothers_never_modify_their_inputs(bc, dim, smoother, zero_x, give_r,
                                             pre, diagonal, seed):
    H = smoothing_hierarchy(bc, dim, SolverConfig(
        pre=smoother, post=smoother, richardson_scaling="diagonal" if diagonal else "global",
        cg_preconditioner="diagonal" if diagonal else "none"))
    levels = H.levels
    rng = np.random.default_rng(seed)
    s = int(rng.integers(len(H.smoothers)))
    lev, step = levels[s], H.smoothers[s][0 if pre else 1]
    b = rng.standard_normal(lev.n)
    x_full = np.zeros(lev.n) if zero_x else rng.standard_normal(lev.n)
    x = None if zero_x else x_full.copy()
    r = b - lev.matvec(x_full) if give_r else None
    b_before, x_before = b.copy(), x_full.copy()
    got = step(x, b, r)
    assert same_bits(got, step(x_full, b, None))
    assert same_bits(b, b_before) and same_bits(x_full, x_before)
    assert zero_x or same_bits(x, x_before)


EPS = np.finfo(float).eps


def residual_allowance(lev, b, x) -> float:
    """The benchmark checker's rounding allowance for a residual of
    ``A + rho e e^T`` at ``x``: ``2 (row_nnz + 3) eps || |b| + |A| |x|
    + rho sum|x| ||``, ``row_nnz`` the most entries of a row of ``A``."""
    A, rho = lev.combined, (lev.gamma or 0.0) / lev.n
    row_nnz = int(np.diff(A.indptr).max())
    scale = np.abs(b) + abs(A) @ np.abs(x) + rho * np.abs(x).sum()
    return 2.0 * (row_nnz + 3) * EPS * float(np.linalg.norm(scale))


def recomputed_residual(lev, b, x) -> np.ndarray:
    """``b - (A + rho e e^T) x`` by SciPy's CSR product."""
    rho = (lev.gamma or 0.0) / lev.n
    return b - (lev.combined @ x + rho * x.sum())


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("preconditioner", ["none", "diagonal"])
@settings(checked, max_examples=4)
@given(pre=st.sampled_from(SMOOTHERS), start=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stop_test_residual_is_the_recomputed_residual(bc, dim, preconditioner, pre, start,
                                                       seed):
    """With a CG post-smoother ``solve`` stops on the residual the level-0
    CG step read off its recurrence, ``r - alpha A z``.  After every cycle
    that residual is within the benchmark checker's rounding allowance of
    ``b - (A + rho e e^T) x`` recomputed at the cycle's iterate (rank-one
    levels on periodic and reflective grids), and the history holds its
    norm over ``||b||`` bit for bit."""
    H = smoothing_hierarchy(bc, dim, SolverConfig(pre=pre, post="cg",
                                                  cg_preconditioner=preconditioner))
    lev = H.levels[0]
    assert (lev.gamma is None) == (bc is BoundaryCondition.DIRICHLET)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(lev.n)
    x0 = rng.standard_normal(lev.n) if start else None
    cycle, seen = wlmg.mgm.vcycle, []

    def recording(H, s, x, b, r=None, **kwargs):
        out = cycle(H, s, x, b, r, **kwargs)
        if s == 0:
            assert kwargs == {"residual": True} and out[1] is not None
            seen.append((out[0].copy(), out[1].copy()))     # the next cycle consumes r
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(wlmg.mgm, "vcycle", recording)
        x, rep = solve(H, b, max_iter=8, x0=x0)
    assert len(seen) == rep.iterations and same_bits(seen[-1][0], x)
    bnorm = float(np.linalg.norm(b))
    for (x_k, r_k), relres in zip(seen, rep.residuals):
        assert float(np.linalg.norm(r_k)) / bnorm == relres
        gap = float(np.linalg.norm(r_k - recomputed_residual(lev, b, x_k)))
        assert gap <= residual_allowance(lev, b, x_k)


@pytest.mark.parametrize("case", ["step", "zero-residual", "negative-curvature"])
@settings(checked, max_examples=20)
@given(n=st.integers(1, 12), diagonal=st.booleans(), start=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_cg_step_residual_is_its_recurrence(case, n, diagonal, start, seed):
    """``cg_steps(..., residual=True)`` returns the iterate of the plain
    step bit for bit, as does ``overwrite_x=True`` in the array it was
    handed, and, after a step, ``r - alpha A z`` within the
    checker's allowance of ``b - A x`` recomputed at the new iterate.  On a
    zero residual (``r.z == 0``) and on non-positive curvature
    (``z.Az <= 0``) it returns the iterate unchanged and the step's own
    ``r``, ``b - A x`` as the step formed it."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    if case == "negative-curvature":
        A = -A
    dinv = 1.0 / rng.uniform(0.5, 2.0, n) if diagonal else None
    x = rng.integers(-4, 5, n).astype(float) if start else None
    x_full = np.zeros(n) if x is None else x
    if case == "zero-residual":
        A = np.diag(rng.integers(1, 5, n).astype(float))    # b = A x exactly
        b = A @ x_full
    else:
        b = rng.standard_normal(n)
    matvec = lambda v: A @ v                                 # noqa: E731
    got, r = cg_steps(matvec, x, b, dinv=dinv, residual=True)
    assert same_bits(got, cg_steps(matvec, x, b, dinv=dinv))
    if x is not None:       # the step handed x updates it in place, to the same bits
        own = x.copy()
        assert cg_steps(matvec, own, b, dinv=dinv, overwrite_x=True) is own
        assert same_bits(own, got)
    if case == "step":
        A_abs = np.abs(A)
        scale = np.linalg.norm(np.abs(b) + A_abs @ np.abs(got))
        assert np.linalg.norm(r - (b - A @ got)) <= 2.0 * (n + 3) * EPS * scale
    else:
        assert same_bits(got, x_full)
        assert same_bits(r, b - A @ x_full)


def check_factored_matrices(grid: GridSpec, coeff, method: str):
    """On every smoothing level the Gauss-Seidel triangle (the interleaved
    2N-by-2N one on rank-one levels) that set-up stores, and on the coarsest
    level the matrix (bordered on rank-one levels) that it hands to SuperLU,
    are the CSC arrays of ``oracles.gs_triangle_product`` and
    ``oracles.bordered_bmat``, SciPy's conversions, block stacking and
    sparse products, bit for bit, index types included, and store no zero.
    The triangle is stored as SuperLU stores its factor,
    ``oracles.scaled_triangle`` of the oracle: its pivots are the oracle's
    diagonal bit for bit, and it counts nnz plus its order entries.  Set-up
    reads ``tril(A)`` as the transpose of the CSR of its transpose and the
    interleaved triangle's ``A_ij``, ``i > j``, as ``A_ji``, and the coarse
    matrix likewise, so this also checks that the level matrices are
    symmetric."""
    seen, splu = [], spla.splu

    def capture(A, *args, **kwargs):
        seen.append(sp.csc_array((A.data.copy(), A.indices.copy(), A.indptr.copy()),
                                 shape=A.shape))
        return splu(A, *args, **kwargs)

    config = SolverConfig(method=method, pre="gauss-seidel", post="gauss-seidel")
    with pytest.MonkeyPatch.context() as m, warnings.catch_warnings():
        m.setattr(spla, "splu", capture)
        warnings.simplefilter("ignore", RuntimeWarning)    # a chain that stops early
        H = build_hierarchy(split(assemble(grid, coeff), grid, coeff), config)
    assert len(seen) == 1
    stored = [lev._gs[1] for lev in H.levels[:-1]] + seen
    want = [gs_triangle_product(lev) for lev in H.levels[:-1]] + [bordered_bmat(H.levels[-1])]
    for s, (got, ref) in enumerate(zip(stored, want)):
        ref_arrays = ref if s == H.depth else scaled_triangle(ref)
        for name in ("indptr", "indices", "data"):
            assert same_bits(getattr(got, name), getattr(ref_arrays, name)), name
        assert np.all(ref.data != 0.0) and np.all(got.data != 0.0)
    for lev, got, ref in zip(H.levels[:-1], stored, want):
        assert same_bits(got.data[got.indptr[:-1]], ref.diagonal())
        assert got.nnz == ref.nnz and lev._gs[3] == ref.nnz + ref.shape[0]


# 2-D a1 levels store exact zeros on their diagonals (8064 of 28544 on a
# periodic 64^2 level), which both constructions drop
@pytest.mark.parametrize("bc", [BoundaryCondition.PERIODIC, BoundaryCondition.REFLECTIVE],
                         ids=lambda bc: bc.value)
@pytest.mark.parametrize("sizes, coeff", [
    (sizes, coeff) for sizes in ((64,), (128,), (64, 64), (64, 32), (32, 64))
    for coeff in ("a1", "a2", jump_1000) + (("a7", "a8") if len(sizes) == 2 else ())],
    ids=lambda v: getattr(v, "__name__", str(v)))
@pytest.mark.parametrize("method", ["mgm", "tgm"])
def test_rank_one_factored_matrices_equal_the_sparse_product_oracles(bc, sizes, coeff, method):
    check_factored_matrices(GridSpec(sizes, bc), coeff, method)


@pytest.mark.parametrize("sizes, coeff", [
    (sizes, coeff) for sizes in ((63,), (63, 63), (63, 31))
    for coeff in ("a1", "a2", jump_1000) + (("a7", "a8") if len(sizes) == 2 else ())],
    ids=lambda v: getattr(v, "__name__", str(v)))
@pytest.mark.parametrize("method", ["mgm", "tgm"])
def test_dirichlet_factored_matrices_equal_the_sparse_oracles(sizes, coeff, method):
    check_factored_matrices(GridSpec(sizes, BoundaryCondition.DIRICHLET), coeff, method)


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
@pytest.mark.parametrize("sizes, coeff", [((63,), "a2"), ((63,), jump_1000),
                                          ((63, 63), "a2"), ((63, 63), "a8")],
                         ids=["1d-a2", "1d-jump1000", "2d-a2", "2d-a8"])
def test_every_level_matrix_equals_its_transpose(bc, sizes, coeff):
    """Every level matrix equals its transpose bit for bit, the identity by
    which set-up reads a triangle's and the coarse matrix's CSC as the CSR
    of its transpose; periodic levels store their wrap diagonals, which
    mirror too.  Each level's ``combined``, which SciPy reads off the
    diagonals, is the CSR ``oracles.csr_from_bands`` gathers off them, index types
    included."""
    if bc is not BoundaryCondition.DIRICHLET:
        sizes = tuple(n + 1 for n in sizes)
    grid = GridSpec(sizes, bc)
    H = build_hierarchy(split(assemble(grid, coeff), grid, coeff), SolverConfig())
    assert H.n_levels >= 3
    for lev in H.levels:
        A = lev.combined
        transposed = sp.csr_array(A.T)
        assert same_csr(A, transposed) and A.nnz == lev.nnz
        want = csr_from_bands(bands_of(lev.operator), lev.n)
        assert same_csr(A, want)
        assert A.indptr.dtype == A.indices.dtype == want.indices.dtype == np.int32
        if bc is BoundaryCondition.PERIODIC:
            wrap = (lev.sizes[0] - 1) * lev.n // lev.sizes[0]
            assert A[0, wrap] != 0.0 and A[wrap, 0] == A[0, wrap]


@st.composite
def rank_one_grids_and_coefficients(draw):
    """A periodic or reflective grid of even sizes, 1-D or 2-D, and a preset
    or random coefficient."""
    dim = draw(st.sampled_from([1, 2]))
    bc = draw(st.sampled_from([BoundaryCondition.PERIODIC, BoundaryCondition.REFLECTIVE]))
    sizes = tuple(2 * draw(st.integers(2, 32 if dim == 1 else 12)) for _ in range(dim))
    presets = [p for p in PRESETS if dim == 2 or p not in TWO_D_ONLY_PRESETS]
    coeff = draw(st.one_of(st.sampled_from(presets), random_coefficients(dim)))
    return GridSpec(sizes, bc), coeff


@checked
@given(rank_one_grids_and_coefficients(), st.sampled_from(["mgm", "tgm"]))
@example((GridSpec((16, 16), BoundaryCondition.REFLECTIVE), "a1"), "mgm")
@example((GridSpec((8, 12), BoundaryCondition.PERIODIC), "a1"), "tgm")
def test_rank_one_factored_matrices_equal_the_sparse_products(case, method):
    check_factored_matrices(*case, method)


@st.composite
def bench_cells(draw):
    """A cell of a bench table at the table's smallest size."""
    table = TABLES[draw(st.sampled_from(sorted(TABLES)))]
    return (table, draw(st.sampled_from(table.pairs)), draw(st.sampled_from(table.coeffs)),
            min(table.sizes))


@checked
@given(bench_cells(), st.integers(0, 2**32 - 1))
def test_bench_cells_are_deterministic(cell, seed):
    table, pair, coeff, n = cell
    lines, histories = [], []
    for _ in range(2):
        result, rep = bench_cell(table, pair, coeff, n, seed=seed)
        row = BenchRow(table.table_id, pair, coeff, n, result,
                       table.reference.get((pair, coeff, n)), rep.iterations,
                       rep.operations // max(rep.iterations, 1))
        lines.append(bench_rows_csv([row])[1])
        histories.append(np.array(rep.residuals))
    assert lines[0] == lines[1]
    assert same_bits(*histories)
