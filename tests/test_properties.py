"""Property tests of the algebraic identities the solver relies on.

* ``assemble`` builds the stencil band by band; it equals the COO assembly
  of ``oracles.assemble_coo`` bit for bit.
* ``mgm._by_diagonals`` stores a CSR matrix by diagonals; products with it
  equal the CSR products bit for bit.
* ``Projector.restrict`` is the exact adjoint of ``Projector.prolong``.
* Smoothing steps never modify ``x`` or ``b``; ``x=None`` steps as from
  zero and a given residual ``r = b - A x`` steps as without it, bit for
  bit (the given ``r`` is consumed).
* ``sparse_matrix`` and ``StructuredOperator.to_sparse`` build band by
  band; they equal the COO and Kronecker construction of
  ``oracles.sparse_matrix_coo`` and ``oracles.to_sparse_kron`` bit for bit,
  explicit zeros included.
* ``TensorSymbol.sup_norm`` skips blocks of the angle grid; it equals the
  max over the full grid exactly.
* The Galerkin symbol fold agrees with the triple product ``p^T M p``, and
  every Galerkin coarse level is symmetric positive definite.

Examples are derandomized, so every run checks the same cases.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wlmg.discretize import (TWO_D_ONLY_PRESETS, BoundaryCondition, DiffusionCoefficient,
                             GridSpec, algebra_for_bc, assemble, split)
from wlmg.mgm import SMOOTHERS, LevelHierarchy, SolverConfig, _by_diagonals, build_hierarchy
from wlmg.structured import AlgebraKind, StructuredOperator, sparse_matrix
from wlmg.symbols import CosineSymbol, TensorSymbol
from wlmg.transfer import Projector, coarsen_structured

from oracles import assemble_coo, sparse_matrix_coo, to_sparse_kron

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
    grid, coeff = case
    got, want = assemble(grid, coeff), assemble_coo(grid, coeff)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert same_bits(got.data, want.data)


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
    assert same_csr(op.to_sparse(), to_sparse_kron(op))
    for term in op.symbol.terms:
        for g, n in zip(term, op.sizes):
            assert same_csr(sparse_matrix(op.kind, g, n), sparse_matrix_coo(op.kind, g, n))


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
@given(n=st.integers(1, 40), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_products_by_diagonals_equal_csr_products(n, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    A = sp.csr_array(dense)
    D, n_upper = _by_diagonals(A)
    assert n_upper == sp.triu(A, k=1).nnz
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
    want = (p.T @ (op.to_sparse() @ p)).toarray()
    got = coarsen_structured(op, proj).to_sparse().toarray()
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
        M = lev.dense_operator()
        assert np.array_equal(M, M.T)
        np.linalg.cholesky(M)       # raises unless positive definite


@lru_cache(maxsize=None)
def smoothing_levels(bc, dim):
    n = (63 if dim == 1 else 31) + (bc is not BoundaryCondition.DIRICHLET)
    grid = GridSpec((n,) * dim, bc)
    coeff = "a2" if dim == 1 else "a7"
    return build_hierarchy(split(assemble(grid, coeff), grid, coeff)).levels


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
    levels = smoothing_levels(bc, dim)
    config = SolverConfig(pre=smoother, post=smoother,
                          richardson_scaling="diagonal" if diagonal else "global",
                          cg_preconditioner="diagonal" if diagonal else "none")
    H = LevelHierarchy(levels, config)
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
