import numpy as np
import pytest
import scipy.sparse as sp

from wlmg.symbols import CosineSymbol, TensorSymbol
from wlmg.structured import AlgebraKind, StructuredOperator, algebra_grid

from oracles import dct3_basis, dense_matrix, materialize_dense, to_sparse

LAPLACE = CosineSymbol([2.0, -1.0])
KINDS = [AlgebraKind.TAU, AlgebraKind.CIRCULANT, AlgebraKind.DCT3]


def make_op(kind, n, sym=LAPLACE, rank_one=None):
    return StructuredOperator(kind, (n,), TensorSymbol.from_1d(sym), rank_one)


def eig_reconstruction(kind, sym, n):
    """Independent dense oracle: Q diag(f(grid)) Q^T with the explicit basis."""
    lam = sym.eval(algebra_grid(kind, n))
    if kind is AlgebraKind.TAU:
        i = np.arange(1, n + 1)
        Q = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(i, i) * np.pi / (n + 1))
    elif kind is AlgebraKind.CIRCULANT:
        j = np.arange(n)
        F = np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
        return np.real(F @ np.diag(lam) @ F.conj().T)
    else:
        Q = dct3_basis(n)
    return (Q * lam) @ Q.T


def test_dense_examples():
    assert np.array_equal(materialize_dense(make_op(AlgebraKind.TAU, 3)),
                          np.array([[2., -1., 0.], [-1., 2., -1.], [0., -1., 2.]]))
    assert np.array_equal(materialize_dense(make_op(AlgebraKind.CIRCULANT, 3)),
                          np.array([[2., -1., -1.], [-1., 2., -1.], [-1., -1., 2.]]))
    # DCT-III entries come from eigen-reconstruction with eigenvalues f(pi j / n)
    expected = eig_reconstruction(AlgebraKind.DCT3, LAPLACE, 2)
    got = materialize_dense(make_op(AlgebraKind.DCT3, 2))
    assert np.allclose(got, expected, atol=1e-14)
    assert np.allclose(got, np.array([[1., -1.], [-1., 1.]]), atol=1e-14)


@pytest.mark.parametrize("kind", KINDS)
def test_dense_matches_eig_reconstruction(kind):
    rng = np.random.default_rng(42)
    for n in range(4, 17):
        m = int(rng.integers(1, 4))
        coeffs = rng.standard_normal(m + 1)
        sym = CosineSymbol(coeffs)
        M = dense_matrix(kind, sym, n)
        assert np.allclose(M, eig_reconstruction(kind, sym, n), atol=1e-12)
        assert np.abs(M - M.T).max() <= 1e-13


@pytest.mark.parametrize("kind", KINDS)
def test_apply_matches_dense(kind):
    rng = np.random.default_rng(1)
    for n in range(4, 17):
        coeffs = rng.standard_normal(int(rng.integers(1, 4)) + 1)
        coeffs[0] = abs(coeffs[0]) + 2 * np.abs(coeffs[1:]).sum()  # keep f >= 0
        op = make_op(kind, n, CosineSymbol(coeffs))
        S = to_sparse(op)
        M = materialize_dense(op)
        for _ in range(10):
            v = rng.standard_normal(n)
            got = S @ v
            want = M @ v
            assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1)


@pytest.mark.parametrize("kind", KINDS)
def test_sparse_matches_dense(kind):
    rng = np.random.default_rng(9)
    for n in (5, 8, 12, 16):
        sym = CosineSymbol(rng.standard_normal(3))
        op = make_op(kind, n, sym)
        assert np.allclose(to_sparse(op).toarray(), materialize_dense(op), atol=1e-13)


def reference_sparse_matrix(kind, f, n):
    """Reference oracle: the banded algebra matrix entry by entry, row by row."""
    t = f.coeffs
    m = len(t) - 1

    def band(s):
        return t[s] if 0 <= s < len(t) else 0.0

    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(max(0, i - m), min(n, i + m + 1)):
            v = t[abs(i - j)]
            if kind is AlgebraKind.TAU:
                v -= band(i + j + 2) + band(2 * n - i - j)
            elif kind is AlgebraKind.DCT3:
                v += band(i + j + 1) + band(2 * n - 1 - i - j)
            if v != 0.0:
                rows.append(i), cols.append(j), vals.append(v)
        if kind is AlgebraKind.CIRCULANT:
            for k in range(1, m + 1):
                for j in ((i - (n - k)) % n, (i + (n - k)) % n):
                    if abs(i - j) > m:
                        rows.append(i), cols.append(j), vals.append(t[k])
    A = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()
    A.sort_indices()
    return A


@pytest.mark.parametrize("kind", KINDS)
def test_sparse_matrix_equals_row_loop(kind):
    rng = np.random.default_rng(10)
    for n in (3, 4, 5, 8, 16, 31, 64):
        for m in range(0, 5):
            if 2 * m >= n:
                continue
            gapped = np.zeros(m + 1)     # zero inner band coefficients
            gapped[[0, m]] = 1.0
            for coeffs in (rng.standard_normal(m + 1), gapped):
                sym = CosineSymbol(coeffs)
                got = to_sparse(make_op(kind, n, sym))
                want = reference_sparse_matrix(kind, sym, n)
                want.eliminate_zeros()      # the row loop stores zero wrap entries
                for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                             (got.data, want.data)):
                    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", KINDS)
def test_dense_matrix_matches_or_raises(kind):
    """Every band up to 2n + 2 at n <= 8: the dense matrix equals the
    eigen-reconstruction, or it raises, exactly where the sparse one does."""
    rng = np.random.default_rng(12)
    for n in range(1, 9):
        raised = 0
        for m in range(0, 2 * n + 3):
            coeffs = rng.standard_normal(m + 1)
            coeffs[-1] = 1.0 + abs(coeffs[-1])       # the band is exactly m
            sym = CosineSymbol(coeffs)
            try:
                M = dense_matrix(kind, sym, n)
            except ValueError as exc:
                assert "too wide" in str(exc)
                with pytest.raises(ValueError, match="too wide"):
                    make_op(kind, n, sym).bands()
                raised += 1
                continue
            want = eig_reconstruction(kind, sym, n)
            assert np.abs(M - want).max() <= 1e-12
            assert np.abs(to_sparse(make_op(kind, n, sym)).toarray() - want).max() <= 1e-12
        assert raised > 0


@pytest.mark.parametrize("kind", KINDS)
def test_sparse_matrix_wide_band(kind):
    """Bands as wide as the grid (coarse levels of small grids) keep the
    exact entry formulas; past the fold-over limit the size is refused."""
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        limit = {AlgebraKind.TAU: n + 2, AlgebraKind.DCT3: n,
                 AlgebraKind.CIRCULANT: n - 1}[kind]
        for m in range(0, limit + 1):
            sym = CosineSymbol(rng.standard_normal(m + 1))
            got = to_sparse(make_op(kind, n, sym)).toarray()
            assert np.abs(got - eig_reconstruction(kind, sym, n)).max() <= 1e-12
        with pytest.raises(ValueError, match="too wide"):
            make_op(kind, n, CosineSymbol(np.ones(limit + 2))).bands()


@pytest.mark.parametrize("kind", KINDS)
def test_eigenvalue_identity(kind):
    rng = np.random.default_rng(4)
    for n in (6, 9, 14):
        sym = CosineSymbol(rng.standard_normal(3))
        op = make_op(kind, n, sym)
        got = np.sort(np.linalg.eigvalsh(materialize_dense(op)))
        want = np.sort(op.eigenvalues())
        assert np.allclose(got, want, atol=1e-10)


def test_apply_2d_matches_dense():
    rng = np.random.default_rng(6)
    for kind in KINDS:
        sym = TensorSymbol.separable_sum([LAPLACE, LAPLACE])
        op = StructuredOperator(kind, (6, 5), sym)
        M = materialize_dense(op)
        v = rng.standard_normal(30)
        assert np.allclose(to_sparse(op) @ v, M @ v, atol=1e-12)


def test_apply_examples():
    op = make_op(AlgebraKind.TAU, 3)
    assert np.allclose(to_sparse(op) @ np.ones(3), [1.0, 0.0, 1.0])
    op = make_op(AlgebraKind.CIRCULANT, 4)
    assert np.allclose(to_sparse(op) @ np.ones(4), np.zeros(4), atol=1e-14)
    corrected = op.strang_correct()
    gamma = corrected.rank_one
    assert gamma == pytest.approx(2.0)  # f(2 pi / 4) = 2
    # the bands exclude the rank-one term; the dense oracle carries it
    assert np.array_equal(to_sparse(corrected).toarray(), to_sparse(op).toarray())
    dense = materialize_dense(corrected)
    assert np.allclose(dense @ np.ones(4), gamma * np.ones(4))


def test_strang_values():
    circ = make_op(AlgebraKind.CIRCULANT, 8).strang_correct()
    assert circ.rank_one == pytest.approx(2 - 2 * np.cos(np.pi / 4))
    dct = make_op(AlgebraKind.DCT3, 8).strang_correct()
    assert dct.rank_one == pytest.approx(2 - 2 * np.cos(np.pi / 8))
    for op in (circ, dct):
        assert np.linalg.eigvalsh(materialize_dense(op)).min() > 0


def test_strang_errors():
    with pytest.raises(ValueError):
        make_op(AlgebraKind.TAU, 8).strang_correct()
    with pytest.raises(ValueError):
        make_op(AlgebraKind.CIRCULANT, 8, CosineSymbol([1.0])).strang_correct()


def test_strang_2d_uses_per_dimension_frequencies():
    sym = TensorSymbol.separable_sum([LAPLACE, LAPLACE])
    op = StructuredOperator(AlgebraKind.CIRCULANT, (8, 4), sym).strang_correct()
    want = (2 - 2 * np.cos(2 * np.pi / 8)) + (2 - 2 * np.cos(2 * np.pi / 4))
    assert op.rank_one == pytest.approx(want)


def test_dense_size_guard():
    op = make_op(AlgebraKind.TAU, 5000)
    with pytest.raises(ValueError):
        materialize_dense(op)


@pytest.mark.parametrize("sizes, bad", [((63.9,), "63.9"), ((15, 7.0), "7.0"), ((True,), "True"),
                                        ((np.float64(15.0),), r"np\.float64\(15\.0\)")])
def test_operator_rejects_a_size_that_is_not_an_integer(sizes, bad):
    """A float size is not truncated, and a ``bool`` is not a size."""
    symbol = TensorSymbol.separable_sum([LAPLACE] * len(sizes))
    with pytest.raises(ValueError, match=f"^grid size {bad} is not an integer$"):
        StructuredOperator(AlgebraKind.TAU, sizes, symbol)


def test_operator_takes_numpy_integer_sizes():
    op = StructuredOperator(AlgebraKind.TAU, np.array([7, 5]),
                            TensorSymbol.separable_sum([LAPLACE] * 2))
    assert op.sizes == (7, 5) and all(type(n) is int for n in op.sizes)
