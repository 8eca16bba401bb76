import numpy as np
import pytest
import scipy.sparse as sp

from wlmg.discretize import BoundaryCondition, GridSpec, algebra_for_bc, assemble, split
from wlmg.structured import AlgebraKind, StructuredOperator
from wlmg.symbols import CosineSymbol, TensorSymbol, fold
from wlmg.transfer import (P_SYMBOL, TAPS, Projector, coarse_size, coarsen_structured,
                           galerkin_sparse, galerkin_structured, project_rank_one)

from oracles import (bands_of, correction_csr, csr_from_bands, cutting_matrix, full_dense,
                     galerkin_by_taps, galerkin_csr, materialize_dense, projector_kron)

LAPLACE = CosineSymbol([2.0, -1.0])
KINDS = [AlgebraKind.TAU, AlgebraKind.CIRCULANT, AlgebraKind.DCT3]


def fine_size(kind, n1):
    return 2 * n1 + 1 if kind is AlgebraKind.TAU else 2 * n1


def test_coarse_size_rules():
    assert coarse_size(AlgebraKind.TAU, 31) == 15
    assert coarse_size(AlgebraKind.CIRCULANT, 32) == 16
    assert coarse_size(AlgebraKind.DCT3, 32) == 16
    with pytest.raises(ValueError):
        coarse_size(AlgebraKind.TAU, 16)
    with pytest.raises(ValueError):
        coarse_size(AlgebraKind.CIRCULANT, 15)


def test_cutting_matrix_shapes():
    T = cutting_matrix(AlgebraKind.TAU, 7).toarray()
    assert T.shape == (7, 3)
    assert np.array_equal(np.nonzero(T)[0], [1, 3, 5])
    T = cutting_matrix(AlgebraKind.CIRCULANT, 8).toarray()
    assert np.array_equal(np.nonzero(T)[0], [0, 2, 4, 6])
    T = cutting_matrix(AlgebraKind.DCT3, 8).toarray()
    assert np.array_equal(T.sum(axis=0), [2, 2, 2, 2])


def test_taps_are_the_projector_symbol():
    """A column of ``M(2 + 2cos) T`` holds the Laurent coefficients of
    ``2 + 2cos``; a DCT-III column sums two neighbouring ones, which
    convolves them with ``(1, 1)``."""
    laurent = P_SYMBOL.laurent()
    assert TAPS[AlgebraKind.TAU] == TAPS[AlgebraKind.CIRCULANT] == tuple(laurent)
    assert TAPS[AlgebraKind.DCT3] == tuple(np.convolve(laurent, (1.0, 1.0)))


def test_prolong_dirichlet_example():
    P = Projector(AlgebraKind.TAU, (7,))
    e1 = np.zeros(3)
    e1[0] = 1.0
    got = P.prolong(e1)
    want = np.array([1.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(got, want, atol=1e-14)
    assert np.allclose(P.prolong(np.zeros(3)), np.zeros(7))


@pytest.mark.parametrize("kind", KINDS)
def test_matrix_free_matches_sparse(kind):
    rng = np.random.default_rng(8)
    for n1 in (3, 5, 8):
        P = Projector(kind, (fine_size(kind, n1),))
        M = P.to_sparse().toarray()
        for _ in range(5):
            y = rng.standard_normal(P.n_coarse)
            r = rng.standard_normal(P.n_fine)
            assert np.allclose(P.prolong(y), M @ y, atol=1e-13)
            assert np.allclose(P.restrict(r), M.T @ r, atol=1e-13)


def test_length_mismatch():
    for sizes in ((7,), (7, 15)):
        P = Projector(AlgebraKind.TAU, sizes)
        with pytest.raises(ValueError, match=f"expected a vector of length {P.n_coarse},"):
            P.prolong(np.ones(P.n_coarse + 1))
        with pytest.raises(ValueError, match=f"expected a vector of length {P.n_fine},"):
            P.restrict(np.ones(P.n_fine - 1))
        with pytest.raises(ValueError, match=f"expected a vector of length {P.n_fine},"):
            P.restrict(np.ones((P.n_fine, 1)))


@pytest.mark.parametrize("kind", KINDS)
def test_adjoint_identity(kind):
    rng = np.random.default_rng(3)
    for n1 in (4, 6):
        P = Projector(kind, (fine_size(kind, n1),))
        for _ in range(10):
            y = rng.standard_normal(P.n_coarse)
            x = rng.standard_normal(P.n_fine)
            assert np.dot(P.prolong(y), x) == pytest.approx(
                np.dot(y, P.restrict(x)), abs=1e-13)


def test_restrict_examples():
    P = Projector(AlgebraKind.TAU, (7,))
    assert np.allclose(P.restrict(np.zeros(7)), np.zeros(3))
    e1 = np.zeros(3)
    e1[0] = 1.0
    M = P.to_sparse().toarray()
    assert np.allclose(P.restrict(P.prolong(e1)), (M.T @ M) @ e1, atol=1e-13)


@pytest.mark.parametrize("kind", KINDS)
def test_full_rank(kind):
    for n1 in (4, 8):
        P = Projector(kind, (fine_size(kind, n1),))
        sv = np.linalg.svd(P.to_sparse().toarray(), compute_uv=False)
        assert sv.min() > 1e-8


def test_galerkin_structured_self_similarity_dirichlet():
    P = Projector(AlgebraKind.TAU, (15,))
    sym = galerkin_structured(TensorSymbol.from_1d(LAPLACE), P)
    assert np.allclose(sym.terms[0][0].coeffs, [2.0, -1.0], atol=1e-14)


def test_galerkin_structured_zero():
    P = Projector(AlgebraKind.TAU, (15,))
    sym = galerkin_structured(TensorSymbol.from_1d(CosineSymbol([0.0])), P)
    assert sym.terms[0][0].coeffs.tolist() == [0.0]


@pytest.mark.parametrize("dim", [1, 2])
def test_tau_coarse_factors_scale_by_exactly_one_half(dim):
    """``s^2`` is 1/2 per dimension for the tau projector, as the coarse
    correction takes it: each coarse factor is the fold of ``p^2 g``
    halved, bit for bit, not scaled by ``(1/sqrt(2))**2``."""
    g, h = CosineSymbol([4.0, -1.0, 0.3]), CosineSymbol([6.0, -1.5, -0.25, 0.1])
    terms = [(g,), (h,)] if dim == 1 else [(g, h), (LAPLACE, g)]
    symbol = TensorSymbol(dim, terms)
    coarse = galerkin_structured(symbol, Projector(AlgebraKind.TAU, (15,) * dim))
    assert len(coarse.terms) == len(symbol.terms)
    for term, got in zip(symbol.terms, coarse.terms):
        for factor, c in zip(term, got):
            want = fold(P_SYMBOL * P_SYMBOL * factor).scaled(0.5)
            assert c.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_galerkin_structured_matches_dense_triple_product(kind):
    n0 = 15 if kind is AlgebraKind.TAU else 16
    P = Projector(kind, (n0,))
    op = StructuredOperator(kind, (n0,), TensorSymbol.from_1d(LAPLACE))
    coarse = galerkin_structured(op.symbol, P)
    coarse_op = StructuredOperator(kind, P.coarse_sizes, coarse)
    p = P.to_sparse().toarray()
    want = p.T @ materialize_dense(op) @ p
    got = materialize_dense(coarse_op)
    rel = np.abs(got - want).max() / np.abs(want).max()
    assert rel <= 1e-11


def coarse_correction(R, P):
    """``galerkin_sparse`` of a CSR correction, as CSR."""
    return csr_from_bands(galerkin_sparse(bands_of(R), P), P.n_coarse)


def test_galerkin_sparse_examples():
    P = Projector(AlgebraKind.TAU, (7,))
    Z = sp.csr_array(sp.identity(7) * 0.0)
    assert coarse_correction(Z, P).nnz == 0
    I = sp.csr_array(sp.identity(7))
    got = coarse_correction(I, P).toarray()
    p = P.to_sparse().toarray()
    assert np.allclose(got, p.T @ p, atol=1e-13)


def test_galerkin_sparse_a2():
    grid = GridSpec((31,), BoundaryCondition.DIRICHLET)
    prob = split(assemble(grid, "a2"), grid, "a2")
    P = Projector(AlgebraKind.TAU, (31,))
    R = correction_csr(prob)
    got = coarse_correction(R, P).toarray()
    p = P.to_sparse().toarray()
    want = p.T @ R.toarray() @ p
    assert np.abs(got - want).max() <= 1e-11 * max(np.abs(want).max(), 1)
    lam = np.linalg.eigvalsh(got)
    assert lam.min() >= -1e-10


@pytest.mark.parametrize("sizes, steps", [((16,), (3,)), ((8, 8), (3, 24))],
                         ids=["1d", "2d"])
def test_galerkin_sparse_dct3_with_gapped_bands(sizes, steps):
    """A DCT-III correction whose diagonals skip offsets (only 0 and
    ``+-step``) extends to the rows the taps read without the diagonals in
    the gaps, and its coarse correction is the sparse product ``p^T R p``."""
    rng = np.random.default_rng(7)
    n = int(np.prod(sizes))
    R = sp.diags_array(rng.uniform(1.0, 2.0, n))
    for step in steps:
        upper = sp.diags_array(rng.uniform(-1.0, 1.0, n - step), offsets=step, shape=(n, n))
        R = R + upper + upper.T
    R = sp.csr_array(R)
    P = Projector(AlgebraKind.DCT3, sizes)
    got = coarse_correction(R, P).toarray()
    want = galerkin_csr(R, P).toarray()
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_master_galerkin_identity_1d(bc):
    """Coarse full operator (fold + triple product + rank-one) == p^T A p."""
    kind = algebra_for_bc(bc)
    for n0 in ((15, 31) if kind is AlgebraKind.TAU else (16, 32)):
        grid = GridSpec((n0,), bc)
        prob = split(assemble(grid, "a2"), grid, "a2")
        P = Projector(kind, (n0,))
        scaled = StructuredOperator(
            kind, (n0,), prob.structured.symbol.scaled(prob.a_min),
            rank_one=None if prob.structured.rank_one is None
            else prob.a_min * prob.structured.rank_one)
        coarse_struct = coarsen_structured(scaled, P)
        coarse_R = coarse_correction(correction_csr(prob), P)
        got = materialize_dense(coarse_struct) + coarse_R.toarray()
        p = P.to_sparse().toarray()
        A = full_dense(prob)
        want = p.T @ A @ p
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= 1e-11, (bc, n0, rel)
        assert np.linalg.eigvalsh(want).min() > 0


def test_master_galerkin_identity_2d():
    grid = GridSpec((15, 15), BoundaryCondition.DIRICHLET)
    prob = split(assemble(grid, "a2"), grid, "a2")
    P = Projector(AlgebraKind.TAU, (15, 15))
    scaled = StructuredOperator(AlgebraKind.TAU, (15, 15),
                                prob.structured.symbol.scaled(prob.a_min))
    coarse_struct = coarsen_structured(scaled, P)
    coarse_R = coarse_correction(correction_csr(prob), P)
    got = materialize_dense(coarse_struct) + coarse_R.toarray()
    p = P.to_sparse().toarray()
    want = p.T @ full_dense(prob) @ p
    rel = np.abs(got - want).max() / np.abs(want).max()
    assert rel <= 1e-11


def test_rank_one_projection_constant():
    for kind in (AlgebraKind.CIRCULANT, AlgebraKind.DCT3):
        P = Projector(kind, (16,))
        gamma = project_rank_one(1.0, P)
        factor = 8.0 if kind is AlgebraKind.CIRCULANT else 32.0
        assert gamma == pytest.approx(factor)


@pytest.mark.parametrize("kind", [AlgebraKind.CIRCULANT, AlgebraKind.DCT3],
                         ids=lambda k: k.value)
@pytest.mark.parametrize("sizes", [(4,), (16,), (4, 4), (8, 6), (16, 32)])
def test_rank_one_projection_equals_oracle_column_sums(kind, sizes):
    """``project_rank_one`` takes the column sums of ``p`` as
    ``(s * sum(taps))^d``; the paper's ``p`` has those sums in every column,
    and the coefficient is the one computed from them, bit for bit."""
    P = Projector(kind, sizes)
    sums = projector_kron(kind, sizes).sum(axis=0)
    c = float(sums[0])
    assert np.all(sums == c)
    gamma = 0.3
    assert project_rank_one(gamma, P) == gamma * c * c * P.n_coarse / P.n_fine


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("dim", [1, 2])
def test_projector_has_int32_indices_and_int64_products(kind, dim):
    """``p`` keeps int32 index arrays; its products and the oracle's Galerkin
    triple products equal those of the same ``p`` with int64 indices bit for
    bit."""
    proj = Projector(kind, (fine_size(kind, 12),) * dim)
    p = proj.to_sparse()
    assert p.indices.dtype == np.int32 and p.indptr.dtype == np.int32
    p = sp.csr_array(p)
    wide = sp.csr_array((p.data, p.indices.astype(np.int64), p.indptr.astype(np.int64)),
                        shape=p.shape)
    assert wide.indices.dtype == np.int64
    rng = np.random.default_rng(2)
    y, r = rng.standard_normal(proj.n_coarse), rng.standard_normal(proj.n_fine)
    assert proj.prolong(y).tobytes() == (wide @ y).tobytes()
    assert proj.restrict(r).tobytes() == (sp.csr_array(wide.T) @ r).tobytes()
    R = sp.random_array((proj.n_fine, proj.n_fine), density=0.05, rng=rng, format="csr")
    R = sp.csr_array(R + R.T)
    G = galerkin_csr(R, proj)
    G_wide = sp.csr_array(wide.T @ (R @ wide))
    G_wide = sp.csr_array((G_wide + G_wide.T) * 0.5)
    G_wide.sort_indices()
    assert np.array_equal(G.indptr, G_wide.indptr)
    assert np.array_equal(G.indices, G_wide.indices)
    assert G.data.tobytes() == G_wide.data.tobytes()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("dim", [1, 2])
def test_projector_holds_p_once_in_its_bound_products(kind, dim):
    """``to_sparse`` returns the matrix ``prolong`` multiplies by, and
    ``restrict``'s matrix, ``p^T`` as CSR, holds the same three arrays."""
    proj = Projector(kind, (fine_size(kind, 6),) * dim)
    p, pt = proj.to_sparse(), proj._restrict.matrix
    assert p is proj._prolong.matrix and proj.to_sparse() is p
    assert p.format == "csc" and pt.format == "csr" and pt.shape == p.shape[::-1]
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(p, name), getattr(pt, name))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("sizes, bad", [((63.9,), "63.9"), ((64, 32.0), "32.0"),
                                        ((True,), "True")])
def test_projector_rejects_a_size_that_is_not_an_integer(kind, sizes, bad):
    """A float size is not truncated, and a ``bool`` is not a size."""
    with pytest.raises(ValueError, match=f"^grid size {bad} is not an integer$"):
        Projector(kind, sizes)


def test_projector_takes_numpy_integer_sizes():
    P = Projector(AlgebraKind.TAU, np.array([7, 15]))
    assert P.fine_sizes == (7, 15) and all(type(n) is int for n in P.fine_sizes)
    assert P.coarse_sizes == (3, 7)


def checked_galerkin(R: dict, P: Projector) -> dict:
    """``galerkin_sparse(R, P)``, asserted to hold the keys of
    ``oracles.galerkin_by_taps`` in the same order and the same bytes."""
    got, want = galerkin_sparse(R, P), galerkin_by_taps(R, P)
    assert list(got) == list(want)
    assert all(got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes()
               for k in want)
    return got


@pytest.mark.parametrize("bc, sizes", [
    (BoundaryCondition.DIRICHLET, (7,)), (BoundaryCondition.DIRICHLET, (13,)),
    (BoundaryCondition.DIRICHLET, (63,)), (BoundaryCondition.DIRICHLET, (13, 13)),
    (BoundaryCondition.DIRICHLET, (31, 31)),
    (BoundaryCondition.PERIODIC, (8,)), (BoundaryCondition.PERIODIC, (10,)),
    (BoundaryCondition.PERIODIC, (64,)), (BoundaryCondition.PERIODIC, (12, 12)),
    (BoundaryCondition.PERIODIC, (16, 16)), (BoundaryCondition.PERIODIC, (32, 32)),
    (BoundaryCondition.REFLECTIVE, (4,)), (BoundaryCondition.REFLECTIVE, (8,)),
    (BoundaryCondition.REFLECTIVE, (10,)), (BoundaryCondition.REFLECTIVE, (64,)),
    (BoundaryCondition.REFLECTIVE, (10, 10)), (BoundaryCondition.REFLECTIVE, (16, 16)),
    (BoundaryCondition.REFLECTIVE, (32, 32)),
], ids=lambda v: v.value if isinstance(v, BoundaryCondition) else "x".join(map(str, v)))
def test_galerkin_sparse_equals_the_per_tap_oracle(bc, sizes):
    """``galerkin_sparse``, which forms the inner sums of the taps but the
    last two once and reads the others off the previous coarse offset, gives
    the keys, in order, and the bytes of ``oracles.galerkin_by_taps``, which
    forms every inner sum for its own offset and tap, on every level of the
    chain: odd and even coarse sizes, the wide coarse stencils, and the
    small cyclic grids whose offset sets start on ``K`` without ``K - 1``."""
    coeff = "a2" if len(sizes) == 1 else "a8"
    grid = GridSpec(sizes, bc)
    problem = split(assemble(grid, coeff), grid, coeff)
    R, kind, levels = problem.correction, problem.structured.kind, 0
    while R:
        try:
            P = Projector(kind, sizes)
        except ValueError:          # the coarsest size of the chain
            break
        R, sizes, levels = checked_galerkin(R, P), P.coarse_sizes, levels + 1
    assert levels >= 1


@pytest.mark.parametrize("kind, sizes", [
    (AlgebraKind.TAU, (7,)), (AlgebraKind.TAU, (9,)), (AlgebraKind.TAU, (5, 7)),
    (AlgebraKind.CIRCULANT, (8,)), (AlgebraKind.CIRCULANT, (12,)),
    (AlgebraKind.CIRCULANT, (6, 8)), (AlgebraKind.CIRCULANT, (12, 12)),
    (AlgebraKind.DCT3, (4,)), (AlgebraKind.DCT3, (8,)), (AlgebraKind.DCT3, (12,)),
    (AlgebraKind.DCT3, (4, 6)), (AlgebraKind.DCT3, (8, 8)),
], ids=lambda v: v.value if isinstance(v, AlgebraKind) else "x".join(map(str, v)))
def test_galerkin_sparse_of_a_dense_correction_equals_the_per_tap_oracle(kind, sizes):
    """A dense symmetric correction reaches every offset, so on a small
    cyclic grid the offsets of a diagonal group wrap into a set with gaps
    (``0, ..., 4`` modulo 6 is ``-2, 0, ..., 3``): an offset after a gap forms
    its inner sums itself.  Keys and bytes are the oracle's."""
    n = int(np.prod(sizes))
    M = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
    P = Projector(kind, sizes)
    checked_galerkin(bands_of(sp.csr_array(M + M.T)), P)
