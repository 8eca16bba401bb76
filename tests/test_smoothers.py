import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wlmg.discretize import BoundaryCondition, GridSpec, assemble, split
from wlmg.mgm import SolverConfig, _Level, build_hierarchy
from wlmg.smoothers import cg_steps, richardson, splitting_diagonal
from wlmg.structured import AlgebraKind, StructuredOperator
from wlmg.symbols import CosineSymbol, TensorSymbol

from oracles import bands_of, dense_operator, gs_triangle_product

GS = SolverConfig(method="mgm", pre="gauss-seidel", post="richardson")
RANK_ONE = (BoundaryCondition.PERIODIC, BoundaryCondition.REFLECTIVE)


def dense_mv(A):
    return lambda x: A @ x


def gauss_seidel(A: sp.csr_array, x: np.ndarray, b: np.ndarray,
                 rank_one: float = 0.0) -> np.ndarray:
    """Reference oracle: one forward Gauss-Seidel sweep on
    ``A + rank_one * e e^T / N``, row by row.

    The uniform rank-one term is handled with a running sum of the
    already-updated and not-yet-updated entries.
    """
    indptr, indices, data = A.indptr, A.indices, A.data
    n = A.shape[0]
    x = np.array(x, dtype=float)
    rho = rank_one / n if rank_one else 0.0
    total = float(x.sum())  # mixed sum: updated entries below i, old above
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        diag = 0.0
        acc = b[i]
        for c, v in zip(indices[lo:hi], data[lo:hi]):
            if c == i:
                diag = v
            else:
                acc -= v * x[c]
        acc -= rho * (total - x[i])
        diag += rho
        if diag == 0.0:
            raise ZeroDivisionError(f"zero diagonal entry in row {i}")
        old = x[i]
        x[i] = acc / diag
        total += x[i] - old
    return x


def gs_hierarchy(bc, sizes, coeff):
    grid = GridSpec(sizes, bc)
    return build_hierarchy(split(assemble(grid, coeff), grid, coeff), GS)


def test_richardson_fixed_point_and_scalar():
    A = 2.0 * np.eye(1)
    assert richardson(dense_mv(A), np.zeros(1), np.ones(1), 0.5)[0] == pytest.approx(0.5)
    rng = np.random.default_rng(0)
    M = np.diag(rng.uniform(1, 3, size=6))
    b = rng.standard_normal(6)
    xstar = np.linalg.solve(M, b)
    assert np.allclose(richardson(dense_mv(M), xstar, b, 0.3), xstar, atol=1e-14)


def test_omega_values_unit_coefficient():
    grid = GridSpec((7,), BoundaryCondition.DIRICHLET)
    prob = split(assemble(grid, "a1"), grid, "a1")
    H = build_hierarchy(prob, SolverConfig(method="tgm"))
    lev = H.levels[0]
    assert lev.omega_pre == pytest.approx(0.5)
    assert lev.omega_post == pytest.approx(0.25)


def test_richardson_anorm_monotone():
    grid = GridSpec((15,), BoundaryCondition.DIRICHLET)
    for coeff in ("a1", "a2"):
        prob = split(assemble(grid, coeff), grid, coeff)
        H = build_hierarchy(prob, SolverConfig(method="tgm"))
        A = dense_operator(H.levels[0])
        rng = np.random.default_rng(5)
        b = rng.standard_normal(15)
        xstar = np.linalg.solve(A, b)
        for _ in range(20):
            x = rng.standard_normal(15)
            x2 = richardson(dense_mv(A), x, b, H.levels[0].omega_post)
            e1, e2 = x - xstar, x2 - xstar
            assert e2 @ A @ e2 <= e1 @ A @ e1 + 1e-12


def test_gauss_seidel_examples():
    D = sp.csr_array(sp.diags_array([2.0, 3.0, 4.0]))
    got = gauss_seidel(D, np.zeros(3), np.array([2.0, 3.0, 4.0]))
    assert np.allclose(got, np.ones(3))
    T = sp.csr_array(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
    got = gauss_seidel(T, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(got, [0.5, 0.25, 0.125])
    # fixed point
    b = np.array([1.0, 2.0, 3.0])
    xstar = np.linalg.solve(T.toarray(), b)
    assert np.allclose(gauss_seidel(T, xstar, b), xstar, atol=1e-14)


def test_gauss_seidel_matches_dense_triangular():
    rng = np.random.default_rng(1)
    n = 12
    M = np.diag(rng.uniform(2, 3, n))
    for i in range(n):
        for j in range(n):
            if abs(i - j) == 1:
                M[i, j] = -rng.uniform(0.2, 0.9)
    M = (M + M.T) / 2
    A = sp.csr_array(M)
    x = rng.standard_normal(n)
    b = rng.standard_normal(n)
    got = gauss_seidel(A, x, b)
    DL = np.tril(M)
    want = np.linalg.solve(DL, b - np.triu(M, 1) @ x)
    assert np.allclose(got, want, atol=1e-13)


def test_gauss_seidel_rank_one_matches_dense():
    rng = np.random.default_rng(2)
    n = 10
    M = np.diag(rng.uniform(2, 4, n))
    gamma = 0.7
    A = sp.csr_array(M)
    full = M + gamma * np.ones((n, n)) / n
    x = rng.standard_normal(n)
    b = rng.standard_normal(n)
    got = gauss_seidel(A, x, b, rank_one=gamma)
    want = np.linalg.solve(np.tril(full), b - np.triu(full, 1) @ x)
    assert np.allclose(got, want, atol=1e-13)


def test_gauss_seidel_zero_diagonal_raises():
    A = sp.csr_array(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ZeroDivisionError):
        gauss_seidel(A, np.zeros(2), np.ones(2))


def test_engine_gs_matches_reference_sweep():
    grid = GridSpec((15,), BoundaryCondition.DIRICHLET)
    prob = split(assemble(grid, "a2"), grid, "a2")
    H = build_hierarchy(prob, SolverConfig(method="tgm", pre="gauss-seidel",
                                           post="gauss-seidel"))
    lev = H.levels[0]
    rng = np.random.default_rng(3)
    x = rng.standard_normal(15)
    b = rng.standard_normal(15)
    fast = lev.gauss_seidel_step(x, b)
    ref = gauss_seidel(lev.combined, x, b)
    assert np.allclose(fast, ref, rtol=1e-12, atol=1e-13)


def jump_1d(x):
    return np.where(x < 0.5, 1.0, 1000.0)


@pytest.mark.parametrize("bc", RANK_ONE, ids=lambda bc: bc.value)
@pytest.mark.parametrize("sizes,coeff", [((64,), "a2"), ((64,), "a3"), ((64,), jump_1d),
                                         ((32, 32), "a2"), ((32, 32), "a7"),
                                         ((32, 32), "a8")],
                         ids=["1d-a2", "1d-a3", "1d-jump1000", "2d-a2", "2d-a7", "2d-a8"])
def test_rank_one_gs_step_matches_sweep(bc, sizes, coeff):
    """The factored step, one solve with the interleaved triangle, is the
    sweep on A + (gamma/N) e e^T to 1e-14 relative on every level that
    smooths, also across coefficient jumps of 1000."""
    H = gs_hierarchy(bc, sizes, coeff)
    rng = np.random.default_rng(12)
    for lev in H.levels[:-1]:
        assert lev.gamma is not None
        for shift in (0.0, 5.0):   # a random iterate, and one with a large mean
            x = rng.standard_normal(lev.n) + shift
            b = rng.standard_normal(lev.n)
            ref = gauss_seidel(lev.combined, x, b, rank_one=lev.gamma)
            got = lev.gauss_seidel_step(x, b)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("sizes,coeff", [((63,), "a2"), ((63,), jump_1d), ((31, 31), "a2"),
                                         ((31, 31), "a7"), ((31, 31), "a8")],
                         ids=["1d-a2", "1d-jump1000", "2d-a2", "2d-a7", "2d-a8"])
def test_dirichlet_gs_step_matches_sweep(sizes, coeff):
    """Without a rank-one term the factored step is the sweep on A on every
    level that smooths, within the tolerance of the rank-one levels."""
    H = gs_hierarchy(BoundaryCondition.DIRICHLET, sizes, coeff)
    rng = np.random.default_rng(15)
    assert H.n_levels >= 2
    for lev in H.levels[:-1]:
        assert lev.gamma is None
        for shift in (0.0, 5.0):
            x = rng.standard_normal(lev.n) + shift
            b = rng.standard_normal(lev.n)
            ref = gauss_seidel(lev.combined, x, b)
            got = lev.gauss_seidel_step(x, b)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("bc", RANK_ONE, ids=lambda bc: bc.value)
@pytest.mark.parametrize("sizes", [(64,), (16, 16)], ids=["1d", "2d"])
def test_rank_one_gs_energy_norm_monotone(bc, sizes):
    H = gs_hierarchy(bc, sizes, "a7" if len(sizes) == 2 else "a3")
    rng = np.random.default_rng(13)
    for lev in H.levels[:-1]:
        A = dense_operator(lev)
        b = rng.standard_normal(lev.n)
        xstar = np.linalg.solve(A, b)
        for _ in range(10):
            x = rng.standard_normal(lev.n)
            e1, e2 = x - xstar, lev.gauss_seidel_step(x, b) - xstar
            assert e2 @ A @ e2 <= e1 @ A @ e1 * (1 + 1e-12)


def test_dirichlet_gs_step_is_one_lower_triangular_solve():
    """Without a rank-one term the step is exactly the SuperLU solve with
    tril(A) of b - triu(A, 1) x, bit for bit."""
    H = gs_hierarchy(BoundaryCondition.DIRICHLET, (31, 31), "a7")
    rng = np.random.default_rng(14)
    for lev in H.levels[:-1]:
        lower = sp.csc_array(sp.tril(lev.combined, format="csc"))
        lu = spla.splu(lower, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        x = rng.standard_normal(lev.n)
        b = rng.standard_normal(lev.n)
        want = lu.solve(b - sp.triu(lev.combined, k=1, format="csr") @ x)
        assert np.array_equal(lev.gauss_seidel_step(x, b), want)


@pytest.mark.parametrize("bc,n", [(BoundaryCondition.DIRICHLET, 63),
                                  (BoundaryCondition.PERIODIC, 64),
                                  (BoundaryCondition.REFLECTIVE, 64)])
def test_every_gs_level_is_triangular(bc, n):
    for sizes in ((n,), (n, n)):
        H = gs_hierarchy(bc, sizes, "a2")
        assert H.n_levels > 2
        assert all(lev._gs[0] == "triangular" for lev in H.levels[:-1])


@pytest.mark.parametrize("bc,n", [(BoundaryCondition.DIRICHLET, 15),
                                  (BoundaryCondition.REFLECTIVE, 16)])
def test_gs_zero_pivot_raises(bc, n):
    """A zero pivot of A + (gamma/N) e e^T fails with a named row, not in SuperLU."""
    lev = gs_hierarchy(bc, (n,), "a2").levels[0]
    rho = 0.0 if lev.gamma is None else lev.gamma / lev.n
    A = lev.combined.tolil()
    A[3, 3] = -rho
    # all of the broken operator is correction over a zero symbol, so the
    # level stores it exactly
    zero = StructuredOperator(lev.structured.kind, lev.sizes,
                              TensorSymbol(1, [(CosineSymbol([0.0]),)]), rank_one=lev.gamma)
    broken = _Level(zero, bands_of(A), GS)
    with pytest.raises(ZeroDivisionError, match="row 3"):
        broken._ensure_gs()


@pytest.mark.parametrize("rank_one, row", [(None, 0), (0.0, 0), (16.0, None)])
def test_gs_pivots_without_a_stored_diagonal(rank_one, row):
    """A level that stores no diagonal has the pivots ``rho``: zero without a
    rank-one term or with ``gamma = 0``, which fails naming row 0, and
    ``gamma / N`` otherwise, which factors: the interleaved triangle's
    columns of ``x`` start with ``gamma / N`` and those of the running sum
    with 1."""
    n = 16
    band = np.full(n, -1.0)
    zero = StructuredOperator(AlgebraKind.TAU if rank_one is None else AlgebraKind.CIRCULANT,
                              (n,), TensorSymbol(1, [(CosineSymbol([0.0]),)]),
                              rank_one=rank_one)
    broken = _Level(zero, {-1: band, 1: band}, GS)
    assert 0 not in broken.operator.offsets.tolist()
    if row is None:
        factor = broken._ensure_gs()[1]
        first = factor.indptr[:-1]
        assert np.array_equal(factor.indices[first], np.arange(2 * n))
        assert np.array_equal(factor.data[first[0::2]], np.full(n, rank_one / n))
        assert np.array_equal(factor.data[first[1::2]], np.ones(n))
        return
    with pytest.raises(ZeroDivisionError, match=f"row {row} is zero"):
        broken._ensure_gs()


def test_gs_anorm_monotone():
    grid = GridSpec((15,), BoundaryCondition.DIRICHLET)
    prob = split(assemble(grid, "a3"), grid, "a3")
    H = build_hierarchy(prob, SolverConfig(method="tgm", pre="gauss-seidel",
                                           post="gauss-seidel"))
    A = dense_operator(H.levels[0])
    rng = np.random.default_rng(7)
    b = rng.standard_normal(15)
    xstar = np.linalg.solve(A, b)
    for _ in range(20):
        x = rng.standard_normal(15)
        x2 = H.levels[0].gauss_seidel_step(x, b)
        e1, e2 = x - xstar, x2 - xstar
        assert e2 @ A @ e2 <= e1 @ A @ e1 + 1e-12


def test_cg_steps_examples():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((4, 4))
    A = M @ M.T + 4 * np.eye(4)
    b = rng.standard_normal(4)
    # fixed point
    xstar = np.linalg.solve(A, b)
    assert np.allclose(cg_steps(dense_mv(A), xstar, b), xstar)
    # closed-form single step from zero
    x1 = cg_steps(dense_mv(A), np.zeros(4), b)
    want = (b @ b) / (b @ A @ b) * b
    assert np.allclose(x1, want, atol=1e-13)


def test_richardson_refuses_a_non_positive_omega():
    """``omega <= 0`` is refused before any product with ``A``."""
    def no_product(v):
        raise AssertionError("no product may run")
    for omega in (0.0, -0.5):
        for x in (np.zeros(3), None):
            with pytest.raises(ValueError, match="^omega must be positive$"):
                richardson(no_product, x, np.ones(3), omega)


def test_cg_steps_returns_the_iterate_on_a_zero_residual_or_a_breakdown():
    """A zero residual, or a direction of zero or negative curvature, gives
    the iterate back unchanged, as a new array."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4)
    cases = ((np.eye(4), x.copy()),             # b = A x: r = 0
             (np.zeros((4, 4)), x + 1.0),       # z.Az = 0
             (-np.eye(4), x + 1.0))             # z.Az < 0
    for A, b in cases:
        for dinv in (None, np.full(4, 0.5)):
            got = cg_steps(dense_mv(A), x, b, dinv=dinv)
            assert got is not x and got.tobytes() == x.tobytes()
    assert np.array_equal(cg_steps(dense_mv(-np.eye(4)), None, np.ones(4)), np.zeros(4))


def test_cg_diagonal_preconditioned_step():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((5, 5))
    A = M @ M.T + 5 * np.eye(5)
    dinv = 1.0 / np.diag(A)
    b = rng.standard_normal(5)
    x0 = rng.standard_normal(5)
    # one preconditioned step: x + (r.z / z.A.z) z with z = D^{-1} r
    r = b - A @ x0
    z = dinv * r
    want = x0 + (r @ z) / (z @ A @ z) * z
    got = cg_steps(dense_mv(A), x0, b, dinv=dinv)
    assert np.allclose(got, want, atol=1e-13)
    # fixed point still holds
    xstar = np.linalg.solve(A, b)
    assert np.allclose(cg_steps(dense_mv(A), xstar, b, dinv=dinv), xstar)


def test_smoother_purity():
    """Smoothing steps leave x and b untouched, on all three boundary conditions."""
    for bc, n in ((BoundaryCondition.DIRICHLET, 15), (BoundaryCondition.PERIODIC, 16),
                  (BoundaryCondition.REFLECTIVE, 16)):
        grid = GridSpec((n,), bc)
        prob = split(assemble(grid, "a2"), grid, "a2")
        H = build_hierarchy(prob, SolverConfig(method="tgm", pre="gauss-seidel",
                                               post="richardson"))
        lev = H.levels[0]
        rng = np.random.default_rng(11)
        x = rng.standard_normal(n)
        b = rng.standard_normal(n)
        x0, b0 = x.copy(), b.copy()
        for fn in (lambda: lev.gauss_seidel_step(x, b),
                   lambda: richardson(lambda v: lev.matvec(v), x, b, lev.omega_post),
                   lambda: cg_steps(lambda v: lev.matvec(v), x, b)):
            r1, r2 = fn(), fn()
            assert np.array_equal(r1, r2)
            assert np.array_equal(x, x0) and np.array_equal(b, b0)


def test_post_smoother_spectrum_in_unit_interval():
    for coeff in ("a1", "a2", "a3"):
        grid = GridSpec((15,), BoundaryCondition.DIRICHLET)
        prob = split(assemble(grid, coeff), grid, coeff)
        H = build_hierarchy(prob, SolverConfig(method="tgm"))
        A = dense_operator(H.levels[0])
        lam = np.linalg.eigvalsh(A)
        w_pre, w_post = H.levels[0].omega_pre, H.levels[0].omega_post
        assert np.all(np.abs(1 - w_post * lam) < 1.0)
        assert np.all(1 - w_pre * lam > -1.0 - 1e-12)
        assert np.all(1 - w_pre * lam < 1.0)


def test_proposition_style_post_constant_positive():
    from wlmg.verify import smoothing_constant
    grid = GridSpec((15,), BoundaryCondition.DIRICHLET)
    prob = split(assemble(grid, "a2"), grid, "a2")
    H = build_hierarchy(prob, SolverConfig(method="tgm"))
    A = dense_operator(H.levels[0])
    V = np.eye(15) - H.levels[0].omega_post * A
    assert smoothing_constant(A, V) > 0


@pytest.mark.parametrize("bc,n", [(BoundaryCondition.DIRICHLET, 31),
                                  (BoundaryCondition.PERIODIC, 32),
                                  (BoundaryCondition.REFLECTIVE, 32)])
def test_splitting_diagonal_bounds_every_smoothing_level(bc, n):
    """diag(d) - A is PSD on every level that smooths: I - c D^{-1} A has
    spectrum in [1 - c, 1).  The coarsest level, solved directly, holds no
    bound."""
    for sizes, coeff in (((n,), "a2"), ((n,), "a2k:1"), ((15 if n == 31 else 16,) * 2, "a7")):
        grid = GridSpec(sizes, bc)
        prob = split(assemble(grid, coeff), grid, coeff)
        H = build_hierarchy(prob, SolverConfig(method="mgm", richardson_scaling="diagonal"))
        assert H.levels[-1].dinv is H.levels[-1].omega_pre is None
        for lev in H.levels[:-1]:
            A = dense_operator(lev)
            gap = np.diag(1.0 / lev.dinv) - A
            assert np.linalg.eigvalsh(gap).min() >= -1e-10 * np.abs(A).max()


def test_diagonal_scaling_is_global_for_unit_coefficient():
    for bc, n in ((BoundaryCondition.DIRICHLET, 31), (BoundaryCondition.PERIODIC, 32),
                  (BoundaryCondition.REFLECTIVE, 32)):
        grid = GridSpec((n,), bc)
        prob = split(assemble(grid, "a1"), grid, "a1")
        glob = build_hierarchy(prob, SolverConfig(method="tgm")).levels[0]
        diag = build_hierarchy(prob, SolverConfig(method="tgm",
                                                  richardson_scaling="diagonal")).levels[0]
        assert np.allclose(diag.omega_pre * diag.dinv, glob.omega_pre, rtol=1e-14)
        assert np.allclose(diag.omega_post * diag.dinv, glob.omega_post, rtol=1e-14)


def test_splitting_diagonal_rows_and_guard():
    R = sp.csr_array(np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]]))
    assert np.array_equal(splitting_diagonal(4.0, bands_of(R), 3), [7.0, 10.0, 8.0])
    with pytest.raises(ValueError):
        splitting_diagonal(0.0, {}, 3)


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
@pytest.mark.parametrize("dim", [1, 2])
def test_gs_factor_count_is_triangle_nnz_plus_n(bc, dim):
    """The counted factor entries, ``nnz`` of the stored triangle plus its
    order ``n`` (2N on periodic and reflective levels), equal SuperLU's own
    ``L.nnz + U.nnz`` of that triangle's factor on every smoothing level."""
    n = 63 if bc is BoundaryCondition.DIRICHLET else 64
    for coeff in (("a2", "a2k:3") if dim == 1 else ("a7", "a8")):
        grid = GridSpec((n,) * dim, bc)
        H = build_hierarchy(split(assemble(grid, coeff), grid, coeff), GS)
        assert H.n_levels >= 3
        for lev in H.levels[:-1]:
            factor, counted = lev._gs[1], lev._gs[3]
            lu = spla.splu(gs_triangle_product(lev), permc_spec="NATURAL",
                           diag_pivot_thresh=0.0, relax=1, panel_size=1)
            assert counted == factor.nnz + factor.shape[0] == lu.L.nnz + lu.U.nnz
