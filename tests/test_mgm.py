import json
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import wlmg.mgm

from wlmg.discretize import (BoundaryCondition, GridSpec, assemble, build_rhs,
                             split)
from wlmg.mgm import LevelHierarchy, SolverConfig, build_hierarchy, solve, vcycle
from wlmg.verify import dense_iteration_matrix

from oracles import (bands_of, csr_from_bands, dense_operator, dia_triangles, solve_full,
                     split_csr)

D = BoundaryCondition.DIRICHLET


def make_problem(n, coeff="a2", bc=D):
    sizes = (n,) if np.isscalar(n) else tuple(n)
    grid = GridSpec(sizes, bc)
    return split(assemble(grid, coeff), grid, coeff)


def make_system(n, coeff="a2", bc=D):
    """``make_problem`` and its h^2-scaled ones right-hand side."""
    prob = make_problem(n, coeff, bc)
    return prob, build_rhs(prob.grid, "ones")


def run(n, coeff, method, pre, post, bc=D, tol=1e-7, max_iter=None):
    prob, b = make_system(n, coeff, bc)
    H = build_hierarchy(prob, SolverConfig(method=method, pre=pre, post=post))
    return solve(H, b, tol=tol, max_iter=max_iter)


def test_hierarchy_sizes_1d():
    H = build_hierarchy(make_problem(511), SolverConfig(method="mgm"))
    assert [lev.sizes[0] for lev in H.levels] == [511, 255, 127, 63, 31, 15]
    H = build_hierarchy(make_problem(31), SolverConfig(method="tgm"))
    assert [lev.sizes[0] for lev in H.levels] == [31, 15]


def test_single_level_direct_solve():
    x, rep = run(15, "a2", "mgm", "richardson", "richardson")
    assert rep.iterations == 1 and rep.converged


def test_fixed_point_every_configuration():
    rng = np.random.default_rng(0)
    cases = [
        (31, "a2", D, "mgm", "richardson", "richardson"),
        (31, "a3", D, "tgm", "richardson", "gauss-seidel"),
        (32, "a2", BoundaryCondition.PERIODIC, "mgm", "richardson", "gauss-seidel"),
        (32, "a2", BoundaryCondition.REFLECTIVE, "mgm", "richardson", "richardson"),
        ((15, 15), "a7", D, "tgm", "gauss-seidel", "cg"),
    ]
    for n, coeff, bc, method, pre, post in cases:
        prob = make_problem(n, coeff, bc)
        H = build_hierarchy(prob, SolverConfig(method=method, pre=pre, post=post))
        A = dense_operator(H.levels[0])
        b = rng.standard_normal(H.levels[0].n)
        xstar = np.linalg.solve(A, b)
        out = vcycle(H, 0, xstar.copy(), b)
        assert np.allclose(out, xstar, rtol=1e-12, atol=1e-12 * np.abs(xstar).max())


def test_mgm_reduces_to_tgm_bitwise_at_one_coarsening():
    """At n = 31 the V-cycle hierarchy has two levels, and its cycle is the
    two-grid one bit for bit."""
    prob = make_problem(31)
    mgm, tgm = (build_hierarchy(prob, SolverConfig(method=method, pre="richardson",
                                                   post="gauss-seidel"))
                for method in ("mgm", "tgm"))
    assert mgm.n_levels == tgm.n_levels == 2
    rng = np.random.default_rng(1)
    x = rng.standard_normal(31)
    b = rng.standard_normal(31)
    assert vcycle(mgm, 0, x, b).tobytes() == vcycle(tgm, 0, x, b).tobytes()


def test_tgm_iteration_matrix_formula():
    """Column extraction == V_post^nu (I - p A1^{-1} p^T A0) V_pre^nu."""
    prob = make_problem(15, "a2")
    H = build_hierarchy(prob, SolverConfig(method="tgm"))
    M = dense_iteration_matrix(H)
    A0 = dense_operator(H.levels[0])
    A1 = dense_operator(H.levels[1])
    p = H.levels[0].projector.to_sparse().toarray()
    n = len(A0)
    Vpre = np.eye(n) - H.levels[0].omega_pre * A0
    Vpost = np.eye(n) - H.levels[0].omega_post * A0
    CGC = np.eye(n) - p @ np.linalg.solve(A1, p.T @ A0)
    want = Vpost @ CGC @ Vpre
    assert np.abs(M - want).max() <= 1e-11


def test_tgm_iteration_matrix_formula_gs_post():
    prob = make_problem(15, "a3")
    H = build_hierarchy(prob, SolverConfig(method="tgm", pre="richardson",
                                           post="gauss-seidel"))
    M = dense_iteration_matrix(H)
    A0 = dense_operator(H.levels[0])
    A1 = dense_operator(H.levels[1])
    p = H.levels[0].projector.to_sparse().toarray()
    n = len(A0)
    Vpre = np.eye(n) - H.levels[0].omega_pre * A0
    Vpost = np.eye(n) - np.linalg.solve(np.tril(A0), A0)
    CGC = np.eye(n) - p @ np.linalg.solve(A1, p.T @ A0)
    want = Vpost @ CGC @ Vpre
    assert np.abs(M - want).max() <= 1e-11


def mgm_recursion_dense(H, s=0):
    """Dense error-propagation matrix from the level recursion (oracle)."""
    A = dense_operator(H.levels[s])
    n = len(A)
    if s == H.depth:
        return np.zeros((n, n))
    lev = H.levels[s]
    p = lev.projector.to_sparse().toarray()
    A1 = dense_operator(H.levels[s + 1])
    M1 = mgm_recursion_dense(H, s + 1)
    I1 = np.eye(len(A1))
    cgc = np.eye(n) - p @ ((I1 - M1) @ np.linalg.solve(A1, p.T @ A))
    omega_pre, omega_post = lev.omega_pre, lev.omega_post
    pre = H.config.pre
    post = H.config.post
    Vpre = (np.eye(n) - omega_pre * A) if pre == "richardson" \
        else np.eye(n) - np.linalg.solve(np.tril(A), A)
    Vpost = (np.eye(n) - omega_post * A) if post == "richardson" \
        else np.eye(n) - np.linalg.solve(np.tril(A), A)
    return Vpost @ cgc @ Vpre


@pytest.mark.parametrize("bc,n", [(D, 31), (BoundaryCondition.PERIODIC, 32),
                                  (BoundaryCondition.REFLECTIVE, 32)])
def test_mgm_recursion_matches_extraction(bc, n):
    prob = make_problem(n, "a2", bc)
    H = build_hierarchy(prob, SolverConfig(method="mgm", pre="richardson",
                                           post="gauss-seidel"))
    got = dense_iteration_matrix(H)
    want = mgm_recursion_dense(H)
    scale = max(np.abs(want).max(), 1.0)
    assert np.abs(got - want).max() <= 1e-11 * scale


def test_linear_method_identity():
    prob = make_problem(31, "a3")
    H = build_hierarchy(prob, SolverConfig(method="mgm", pre="richardson",
                                           post="richardson"))
    M = dense_iteration_matrix(H)
    A = dense_operator(H.levels[0])
    rng = np.random.default_rng(9)
    b = rng.standard_normal(31)
    xstar = np.linalg.solve(A, b)
    for _ in range(5):
        x = rng.standard_normal(31)
        x_next = vcycle(H, 0, x.copy(), b)
        want = xstar + M @ (x - xstar)
        assert np.abs(x_next - want).max() <= 1e-10


def test_spectral_radius_below_one():
    for n, bc in [(31, D)]:
        for pre, post in [("richardson", "richardson"), ("richardson", "gauss-seidel")]:
            prob = make_problem(n, "a2", bc)
            H = build_hierarchy(prob, SolverConfig(method="mgm", pre=pre, post=post))
            M = dense_iteration_matrix(H)
            rho = np.abs(np.linalg.eigvals(M)).max()
            assert rho < 1.0, (pre, post, rho)


def test_cg_smoothing_rejects_dense_extraction():
    prob = make_problem(31)
    H = build_hierarchy(prob, SolverConfig(method="mgm", pre="richardson", post="cg"))
    with pytest.raises(ValueError):
        dense_iteration_matrix(H)


def test_solve_reports():
    x, rep = run(31, "a1", "tgm", "richardson", "richardson")
    assert rep.converged and rep.residuals[-1] < 1e-7
    assert rep.iterations == len(rep.residuals)
    assert rep.operations > 0 and rep.wall_time >= 0
    # non-convergence flag
    x, rep = run(31, "a2", "tgm", "richardson", "richardson", max_iter=1)
    assert not rep.converged


def test_every_level_spd():
    cases = [(D, (63,)), (BoundaryCondition.PERIODIC, (64,)),
             (BoundaryCondition.REFLECTIVE, (64,)),
             (D, (31, 31)), (BoundaryCondition.PERIODIC, (16, 16)),
             (BoundaryCondition.REFLECTIVE, (16, 16))]
    for bc, sizes in cases:
        prob = make_problem(sizes, "a2", bc)
        H = build_hierarchy(prob, SolverConfig(method="mgm"))
        for lev in H.levels:
            lam = np.linalg.eigvalsh(dense_operator(lev))
            assert lam.min() > 0, (bc, lev.sizes)


def test_reference_spot_checks_1d():
    """Benchmark-configuration counts against the bundled reference cells.

    One-dimensional tables use the diagonal Richardson scaling and the pair
    labelled "richardson+gauss-seidel" runs Gauss-Seidel as the
    pre-smoother; the right-hand side is seeded random noise.
    """
    def bench_run(n, coeff, method, pre, post):
        grid = GridSpec((n,), D)
        prob = split(assemble(grid, coeff), grid, coeff)
        H = build_hierarchy(prob, SolverConfig(method=method, pre=pre, post=post,
                                               richardson_scaling="diagonal"))
        b = np.random.default_rng(0).standard_normal(n)
        return solve(H, b)[1]

    rep = bench_run(31, "a1", "tgm", "richardson", "richardson")
    assert abs(rep.iterations - 2) <= 2
    rep = bench_run(31, "a1", "tgm", "gauss-seidel", "richardson")
    assert abs(rep.iterations - 8) <= 2
    rep = bench_run(511, "a1", "mgm", "richardson", "richardson")
    assert abs(rep.iterations - 8) <= 2
    rep = bench_run(511, "a2", "mgm", "gauss-seidel", "richardson")
    assert abs(rep.iterations - 9) <= 2


def test_iteration_matrix_diagonal_scaling():
    prob = make_problem(15, "a2")
    H = build_hierarchy(prob, SolverConfig(method="tgm",
                                           richardson_scaling="diagonal"))
    M = dense_iteration_matrix(H)
    A0 = dense_operator(H.levels[0])
    A1 = dense_operator(H.levels[1])
    lev = H.levels[0]
    p = lev.projector.to_sparse().toarray()
    n = len(A0)
    assert (lev.omega_pre, lev.omega_post) == (2.0, 1.0)
    Dinv = np.diag(lev.dinv)
    Vpre = np.eye(n) - lev.omega_pre * Dinv @ A0
    Vpost = np.eye(n) - lev.omega_post * Dinv @ A0
    CGC = np.eye(n) - p @ np.linalg.solve(A1, p.T @ A0)
    assert np.abs(M - Vpost @ CGC @ Vpre).max() <= 1e-11


@pytest.mark.parametrize("bc", [D, BoundaryCondition.REFLECTIVE], ids=lambda bc: bc.value)
def test_jacobi_inv_only_under_the_diagonal_preconditioner(bc):
    """Only the diagonal CG preconditioner reads ``jacobi_inv``: without it,
    or without a CG slot, no level holds one, not even after a solve; with
    both every smoothing level holds ``1 / (diag(A) + gamma/N)`` and the
    coarsest none."""
    prob, b = make_system((31, 31) if bc is D else (32, 32), "a7", bc)
    H = build_hierarchy(prob, SolverConfig(pre="richardson", post="cg"))
    solve(H, b, max_iter=2)
    assert all(lev.jacobi_inv is None for lev in H.levels)
    H = build_hierarchy(prob, SolverConfig(pre="richardson", post="cg",
                                           cg_preconditioner="diagonal"))
    assert H.n_levels >= 2 and H.levels[-1].jacobi_inv is None
    no_cg = build_hierarchy(prob, SolverConfig(pre="richardson", post="gauss-seidel",
                                               cg_preconditioner="diagonal"))
    assert all(lev.jacobi_inv is None for lev in no_cg.levels)
    for lev in H.levels[:-1]:
        diag = lev.combined.diagonal()
        if lev.gamma is not None:
            diag = diag + lev.gamma / lev.n
        assert np.array_equal(lev.jacobi_inv, 1.0 / diag)


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
def test_levels_hold_only_their_configured_damping(bc, monkeypatch):
    """The coarsest level, which does not smooth, never evaluates its
    symbol's sup norm and holds no damping; a global level holds no
    ``dinv`` and a diagonal one the factors 2 and 1.  A hierarchy with no
    Richardson slot evaluates no sup norm and holds no damping at all."""
    from wlmg.symbols import TensorSymbol

    evaluated, sup_norm = [], TensorSymbol.sup_norm

    def counting(sym, *args, **kwargs):
        evaluated.append(sym)
        return sup_norm(sym, *args, **kwargs)

    monkeypatch.setattr(TensorSymbol, "sup_norm", counting)
    prob = make_problem((31, 31) if bc is D else (32, 32), "a7", bc)
    for scaling in ("global", "diagonal"):
        evaluated.clear()
        H = build_hierarchy(prob, SolverConfig(pre="gauss-seidel", richardson_scaling=scaling))
        assert H.n_levels >= 2
        assert len(evaluated) == H.n_levels - 1
        assert all(sym is not H.levels[-1].structured.symbol for sym in evaluated)
        coarsest = H.levels[-1]
        assert (coarsest.omega_pre, coarsest.omega_post, coarsest.dinv) == (None, None, None)
        for lev in H.levels[:-1]:
            if scaling == "global":
                assert lev.dinv is None and lev.omega_pre == 2 * lev.omega_post
            else:
                assert (lev.omega_pre, lev.omega_post) == (2.0, 1.0)
                assert lev.dinv.shape == (lev.n,)
    # no Richardson slot: no level bounds its splitting or holds a damping
    for pre, post in (("gauss-seidel", "cg"), ("gauss-seidel", "gauss-seidel")):
        for scaling in ("global", "diagonal"):
            evaluated.clear()
            H = build_hierarchy(prob, SolverConfig(pre=pre, post=post,
                                                   richardson_scaling=scaling))
            assert H.n_levels >= 2 and evaluated == []
            for lev in H.levels:
                assert (lev.omega_pre, lev.omega_post, lev.dinv) == (None, None, None)


def test_levels_built_for_another_configuration_are_refused():
    """Levels keep the damping of the configuration they were built for, and
    a hierarchy takes its configuration from them: it accepts no other, so
    no solve is damped with the wrong form."""
    prob = make_problem(31, "a2")
    config = SolverConfig(richardson_scaling="diagonal")
    H = build_hierarchy(prob, config)
    assert H.config is config and all(lev.config is config for lev in H.levels)
    with pytest.raises(TypeError):
        LevelHierarchy(H.levels, SolverConfig())
    again = LevelHierarchy(H.levels)
    assert again.config is config
    assert again.costs == H.costs and again.cycle_cost == H.cycle_cost


@pytest.mark.parametrize("n,k", [(63, 307), (255, 306)])
def test_coarse_level_that_overflows_is_refused(n, k):
    """The finest matrix is finite, but the Galerkin products overflow on
    the way down: the level whose matrix holds an inf or a NaN is a
    ``ValueError`` naming its sizes, without overflow warnings, not a
    singular coarse factor.  A smaller shift solves."""
    prob = make_problem((n, n), f"a2k:{k}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the coarse level of sizes \(15, 15\) overflows"):
            build_hierarchy(prob)
    prob, b = make_system((n, n), f"a2k:{k - 1}")
    assert solve(build_hierarchy(prob), b)[1].converged


def test_operation_counter_linear_in_n_1d():
    per_iter = []
    for n in (255, 511):
        _, rep = run(n, "a2", "mgm", "richardson", "gauss-seidel")
        per_iter.append(rep.operations / rep.iterations)
    ratio = per_iter[1] / per_iter[0]
    assert 1.8 <= ratio <= 2.4


def test_infeasible_tgm_chain():
    prob = make_problem(16, "a2", D)  # even size cannot cut under Dirichlet
    with pytest.raises(ValueError):
        build_hierarchy(prob, SolverConfig(method="tgm"))


SMALL_GRIDS = [(D, (3,)), (D, (5,)), (D, (3, 3)), (D, (5, 5)),
               (BoundaryCondition.PERIODIC, (4,)), (BoundaryCondition.PERIODIC, (4, 4)),
               (BoundaryCondition.REFLECTIVE, (4,)), (BoundaryCondition.REFLECTIVE, (6,)),
               (BoundaryCondition.REFLECTIVE, (8,)), (BoundaryCondition.REFLECTIVE, (4, 4))]


@pytest.mark.parametrize("bc, sizes", SMALL_GRIDS)
def test_tgm_on_small_grids(bc, sizes):
    """Coarse bands as wide as the coarse grid still give the Galerkin
    operator ``p^T A p``, rank-one term included."""
    H = build_hierarchy(make_problem(sizes, "a2", bc), SolverConfig(method="tgm"))
    p = H.levels[0].projector.to_sparse().toarray()
    want = p.T @ dense_operator(H.levels[0]) @ p
    got = dense_operator(H.levels[1])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    b = np.random.default_rng(0).standard_normal(H.levels[0].n)
    assert solve(H, b, max_iter=100)[1].converged


def test_rank_one_coarse_solve_has_no_size_cap():
    # periodic 130^2 stops at 65^2 = 4225 unknowns, past the old dense cap
    prob, b = make_system((130, 130), "a1", BoundaryCondition.PERIODIC)
    with pytest.warns(RuntimeWarning, match="sparse direct solve of 4225 unknowns"):
        H = build_hierarchy(prob, SolverConfig(method="mgm"))
    assert H.levels[-1].n == 4225
    _, rep = solve(H, b)
    assert rep.converged


@pytest.mark.parametrize("bc, coeff", [(BoundaryCondition.PERIODIC, "a1"),
                                       (BoundaryCondition.REFLECTIVE, "a8")])
def test_bordered_coarse_solve_matches_dense(bc, coeff):
    H = build_hierarchy(make_problem((32, 32), coeff, bc), SolverConfig(method="mgm"))
    lev = H.levels[-1]
    assert lev.gamma is not None and lev._direct[0] == "sparse"
    M = dense_operator(lev)
    b = np.random.default_rng(1).standard_normal(lev.n)
    want = np.linalg.solve(M, b)
    got = lev.direct_solve(b)
    assert got.shape == (lev.n,)
    # normwise backward error, as small as the dense LU's (2e-16 for both)
    eta = np.linalg.norm(b - M @ got) / (
        np.linalg.norm(M, 2) * np.linalg.norm(got) + np.linalg.norm(b))
    assert eta <= 1e-15
    # two backward-stable solves differ by up to about cond(M) * eps: 2e-15
    # for a1 (cond 26), about 1e-12 for a8 (cond 2.6e4, contrast 1000)
    bound = max(1e-12, 10 * np.finfo(float).eps * np.linalg.cond(M))
    assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)


def test_builds_without_scipy_array_helpers(monkeypatch):
    """Set-up and the solve build every sparse matrix from arrays they
    formed, with the format classes, never with SciPy's ``*_array`` helper
    constructors: removing those helpers changes nothing."""
    import scipy.sparse

    for name in ("eye_array", "diags_array", "block_array", "random_array"):
        monkeypatch.delattr(scipy.sparse, name)
    for bc, sizes in ((D, (15, 15)), (BoundaryCondition.PERIODIC, (16, 16)),
                      (BoundaryCondition.REFLECTIVE, (16, 16))):
        prob, b = make_system(sizes, "a2", bc)
        H = build_hierarchy(prob, SolverConfig(method="tgm", pre="gauss-seidel",
                                               post="gauss-seidel"))
        assert solve(H, b)[1].converged


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


BCS = [D, BoundaryCondition.PERIODIC, BoundaryCondition.REFLECTIVE]


@pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
@pytest.mark.parametrize("dim", [1, 2])
def test_level_products_by_diagonals_match_csr(bc, dim):
    """On every level the product with the diagonals is the CSR product bit
    for bit, and the Gauss-Seidel triangles are ``tril(A)`` and
    ``triu(A, 1)``, stored entries and products alike; a smoothing level
    stores the latter as the step's upper view."""
    n = 63 if bc is D else 64
    prob = make_problem((n,) * dim, "a2" if dim == 1 else "a7", bc)
    H = build_hierarchy(prob, SolverConfig(method="mgm", pre="gauss-seidel"))
    rng = np.random.default_rng(21)
    assert H.n_levels >= 3
    for lev in H.levels:
        A = lev.combined
        x = rng.standard_normal(lev.n) + 3.0
        assert isinstance(lev.operator, sp.dia_array)
        assert same_bits(lev.operator @ x, A @ x)
        want = A @ x
        if lev.gamma is not None:
            want = want + lev.gamma * x.sum() / lev.n
        assert same_bits(lev.matvec(x), want)
        lower, upper = dia_triangles(lev)
        if lev.projector is not None:       # the view the Gauss-Seidel step multiplies by
            stored = lev._gs[2].matrix
            assert np.array_equal(stored.offsets, upper.offsets)
            assert same_bits(stored.data, upper.data)
        for got, ref in ((lower, sp.tril(A, format="csr")),
                         (upper, sp.triu(A, k=1, format="csr"))):
            assert same_bits(got @ x, ref @ x)
            got = sp.csr_array(got)
            got.sort_indices()
            for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices),
                         (got.data, ref.data)):
                assert np.array_equal(a, b)


# (bc, sizes, coefficient, smoothers) -> (iterations, operations), recorded
# with the CSR level products; the diagonals' own nnz counts their padding.
# The rank-one Gauss-Seidel counts are those of the interleaved triangle.
PINNED_COUNTS = [
    (D, (63, 63), "a7", dict(pre="gauss-seidel", post="richardson"), 15, 5076150),
    (BoundaryCondition.PERIODIC, (64, 64), "a7",
     dict(pre="gauss-seidel", post="richardson"), 45, 21841110),
    (BoundaryCondition.REFLECTIVE, (64, 64), "a2", dict(pre="richardson", post="cg"),
     72, 44757216),
    (BoundaryCondition.PERIODIC, (64,), "a3",
     dict(pre="richardson", post="richardson", richardson_scaling="diagonal"), 6, 36156),
]


@pytest.mark.parametrize("bc, sizes, coeff, smoothers, iterations, operations",
                         PINNED_COUNTS, ids=["dirichlet-gs", "periodic-gs",
                                             "reflective-rcg", "periodic-1d-diagonal"])
def test_operation_counts_pinned(bc, sizes, coeff, smoothers, iterations, operations):
    grid = GridSpec(sizes, bc)
    prob = split(assemble(grid, coeff), grid, coeff)
    H = build_hierarchy(prob, SolverConfig(method="mgm", **smoothers))
    _, rep = solve(H, build_rhs(grid, "random", seed=0))
    assert rep.converged
    assert (rep.iterations, rep.operations) == (iterations, operations)


# branches PINNED_COUNTS leaves out, recorded with the per-call operation
# counter that the per-level cost table replaced:
# (bc, sizes, coefficient, config) -> (levels, iterations, operations)
PINNED_BRANCH_COUNTS = [
    (D, (31, 31), "a7",
     dict(method="mgm", pre="gauss-seidel", post="cg", cg_preconditioner="diagonal"),
     2, 10, 861670),
    (D, (31, 31), "a2", dict(method="tgm", pre="gauss-seidel", post="richardson"),
     2, 14, 954184),
    (BoundaryCondition.REFLECTIVE, (64,), "a2",
     dict(method="mgm", pre="richardson", post="gauss-seidel"), 3, 11, 79805),
    (D, (15, 15), "a2", dict(method="mgm"), 1, 1, 7246),
]


@pytest.mark.parametrize("bc, sizes, coeff, config, n_levels, iterations, operations",
                         PINNED_BRANCH_COUNTS, ids=["dirichlet-gs-pcg", "dirichlet-tgm",
                                                    "reflective-gs-post", "one-level"])
def test_operation_counts_pinned_branches(bc, sizes, coeff, config, n_levels,
                                          iterations, operations):
    grid = GridSpec(sizes, bc)
    prob = split(assemble(grid, coeff), grid, coeff)
    H = build_hierarchy(prob, SolverConfig(**config))
    assert H.n_levels == n_levels
    _, rep = solve(H, build_rhs(grid, "random", seed=0))
    assert rep.converged
    assert (rep.iterations, rep.operations) == (iterations, operations)


def test_zero_rhs_costs_nothing():
    prob = make_problem((15, 15), "a2")
    H = build_hierarchy(prob, SolverConfig(method="tgm"))
    x, rep = solve(H, np.zeros(H.levels[0].n))
    assert (rep.iterations, rep.operations, rep.converged) == (0, 0, True)
    assert H.cycle_cost > 0 and not x.any()


@pytest.mark.parametrize("x0", ["none", "random"])
def test_zero_rhs_reports_a_zero_final_residual(x0):
    """``b = 0`` runs no cycle and returns ``x = 0``, its exact solution,
    from any ``x0``; the report has converged with an empty history, whose
    final residual is 0, not inf."""
    H = build_hierarchy(make_problem((15, 15), "a2"), SolverConfig(method="tgm"))
    n = H.levels[0].n
    start = None if x0 == "none" else np.random.default_rng(2).standard_normal(n)
    x, rep = solve(H, np.zeros(n), x0=start)
    assert rep.converged and rep.residuals == [] and not x.any()
    assert rep.final_residual == 0.0


@pytest.mark.parametrize("method", ["mgm", "tgm"])
@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
def test_built_levels_hold_no_csr(bc, method):
    """Set-up reads no level's CSR ``combined``: the coarsest factor reads
    its own CSR off the diagonals and drops it, so no level of a freshly
    built hierarchy holds a CSR matrix.  ``combined`` is built on first
    access."""
    sizes = (63, 63) if bc is D else (64, 64)
    H = build_hierarchy(make_problem(sizes, "a7", bc),
                        SolverConfig(method=method, pre="gauss-seidel"))
    assert H.n_levels == (2 if method == "tgm" else 3)
    for lev in H.levels:
        assert lev._combined is None
        held = [item for value in vars(lev).values()
                for item in (value if isinstance(value, tuple) else (value,))]
        assert not [item for item in held if sp.issparse(item) and item.format == "csr"]
    coarsest = H.levels[-1]
    assert coarsest._direct is not None and coarsest.combined.nnz == coarsest.nnz


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_rhs(bad, monkeypatch):
    prob, b = make_system((15, 15), "a2")
    H = build_hierarchy(prob, SolverConfig(method="tgm"))
    b[7] = bad
    monkeypatch.setattr(wlmg.mgm, "vcycle", None)   # no cycle may start
    with pytest.raises(ValueError, match="^b holds a NaN or inf"):
        solve(H, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_initial_guess(bad, monkeypatch):
    prob, b = make_system((16, 16), "a2", BoundaryCondition.REFLECTIVE)
    H = build_hierarchy(prob, SolverConfig(method="tgm"))
    x0 = np.zeros(H.levels[0].n)
    x0[3] = bad
    monkeypatch.setattr(wlmg.mgm, "vcycle", None)
    with pytest.raises(ValueError, match="^x0 holds a NaN or inf"):
        solve(H, b, x0=x0)


@pytest.mark.parametrize("bc, sizes", [(D, (96, 96)), (D, (96,)),
                                       (BoundaryCondition.PERIODIC, (17,)),
                                       (BoundaryCondition.REFLECTIVE, (33, 33))])
def test_uncoarsenable_grid_warns(bc, sizes):
    """A grid above the coarsest size that cannot be halved is no V-cycle."""
    prob = make_problem(sizes, "a2", bc)
    with pytest.warns(RuntimeWarning, match="cannot be coarsened"):
        H = build_hierarchy(prob, SolverConfig(method="mgm"))
    assert H.n_levels == 1


@pytest.mark.parametrize("bc, sizes, coarsest", [(D, (195, 195), (48, 48)),
                                                 (D, (99, 99), (24, 24)),
                                                 (BoundaryCondition.REFLECTIVE, (34, 34),
                                                  (17, 17))])
def test_chain_stopping_above_target_warns(bc, sizes, coarsest):
    """A V-cycle chain that halves, then meets a grid above the coarsest size
    that cannot be halved, warns and names the coarsest sizes reached."""
    prob = make_problem(sizes, "a2", bc)
    with pytest.warns(RuntimeWarning, match="cannot be coarsened") as record:
        H = build_hierarchy(prob, SolverConfig(method="mgm"))
    assert H.levels[-1].sizes == coarsest and H.n_levels > 1
    assert len(record) == 1 and str(coarsest) in str(record[0].message)


@pytest.mark.parametrize("bc, sizes", [(D, (15, 15)), (D, (7,)), (D, (63, 63)),
                                       (BoundaryCondition.PERIODIC, (16,)),
                                       (BoundaryCondition.REFLECTIVE, (16, 16)),
                                       (BoundaryCondition.REFLECTIVE, (64, 64))])
def test_coarsest_or_coarsenable_grid_does_not_warn(bc, sizes):
    prob = make_problem(sizes, "a2", bc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = build_hierarchy(prob, SolverConfig(method="mgm"))
    assert H.n_levels == (1 if max(sizes) <= 16 else 3)


@pytest.mark.parametrize("argument, value, message", [
    ("b", np.ones(224), r"^b must be a vector of length 225, got shape \(224,\)"),
    ("b", np.ones((225, 1)), r"^b must be a vector of length 225, got shape \(225, 1\)"),
    ("b", np.ones(225) + 1j, r"^b must be real, got dtype complex128"),
    ("x0", np.zeros(226), r"^x0 must be a vector of length 225, got shape \(226,\)"),
    ("x0", np.zeros((15, 15)), r"^x0 must be a vector of length 225"),
    ("x0", np.zeros(225, dtype=complex), r"^x0 must be real, got dtype complex128"),
    ("tol", 0.0, r"^tol must be positive, got 0.0"),
    ("tol", -1e-7, r"^tol must be positive"),
    ("tol", np.nan, r"^tol must be positive, got nan"),
    ("tol", "1e-7", r"^tol must be a real number, got '1e-7'"),
    ("max_iter", 2.5, r"^max_iter must be an integer, got 2.5"),
    ("max_iter", np.float64(3.0), r"^max_iter must be an integer"),
    ("max_iter", True, r"^max_iter must be an integer, got True"),
    ("max_iter", 0, r"^max_iter must be >= 1$"),
    ("max_iter", np.int64(-1), r"^max_iter must be >= 1$"),
], ids=["b-short", "b-column", "b-complex", "x0-long", "x0-square", "x0-complex",
        "tol-zero", "tol-negative", "tol-nan", "tol-string", "max_iter-float",
        "max_iter-numpy-float", "max_iter-bool", "max_iter-zero", "max_iter-negative"])
def test_solve_rejects_bad_arguments(argument, value, message, monkeypatch):
    prob, b = make_system((15, 15), "a2")
    H = build_hierarchy(prob, SolverConfig(method="mgm"))
    kwargs = {"b": b, argument: value}
    monkeypatch.setattr(wlmg.mgm, "vcycle", None)   # no cycle may start
    with pytest.raises(ValueError, match=message):
        solve(H, **kwargs)


@pytest.mark.parametrize("config", [{"method": "mgm"}, "mgm"], ids=["dict", "str"])
def test_build_hierarchy_rejects_a_config_that_is_not_a_solver_config(config):
    with pytest.raises(ValueError, match=r"^config must be a SolverConfig, got (dict|str)$"):
        build_hierarchy(make_problem((15, 15), "a2"), config)


@pytest.mark.parametrize("max_iter", [np.int64(2), np.int32(2), np.uint8(2)])
def test_solve_accepts_numpy_integer_max_iter(max_iter):
    prob, b = make_system((31, 31), "a2")
    H = build_hierarchy(prob, SolverConfig(method="mgm"))
    _, rep = solve(H, b, tol=1e-14, max_iter=max_iter)
    _, ref = solve(H, b, tol=1e-14, max_iter=2)
    assert (rep.iterations, rep.converged) == (2, False)
    assert rep.residuals == ref.residuals


def test_concurrent_solves_share_one_hierarchy():
    """Two threads solving different right-hand sides on one hierarchy get
    the iterates and residual histories of sequential solves, bit for bit:
    no work buffer is shared between solves."""
    cases = [(D, (63,), "a2", dict(pre="gauss-seidel", post="richardson")),
             (D, (31, 31), "a7", dict(pre="richardson", post="cg",
                                      cg_preconditioner="diagonal")),
             (BoundaryCondition.REFLECTIVE, (32, 32), "a2",
              dict(pre="gauss-seidel", post="richardson", richardson_scaling="diagonal"))]
    for bc, sizes, coeff, smoothers in cases:
        H = build_hierarchy(make_problem(sizes, coeff, bc),
                            SolverConfig(method="mgm", **smoothers))
        rng = np.random.default_rng(8)
        rhs = [rng.standard_normal(H.levels[0].n) for _ in range(2)]
        sequential = [solve(H, b, max_iter=30) for b in rhs]
        start = threading.Barrier(2, timeout=60)
        results = [[], []]

        def work(k):
            start.wait()
            for _ in range(3):
                results[k].append(solve(H, rhs[k], max_iter=30))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads often, inside every phase
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (xs, rs), runs in zip(sequential, results):
            assert len(runs) == 3
            for xp, rp in runs:
                assert same_bits(xp, xs)
                assert same_bits(rp.residuals, rs.residuals)
                assert rp.operations == rs.operations


@pytest.mark.parametrize("bc, sizes", [(D, (31, 31)), (BoundaryCondition.PERIODIC, (32,)),
                                      (BoundaryCondition.REFLECTIVE, (32, 32))],
                         ids=["dirichlet", "periodic", "reflective"])
def test_hierarchy_keeps_neither_a_nor_the_correction(bc, sizes):
    """Level 0 multiplies by the diagonals ``split`` read off the assembled
    matrix, and no level holds that matrix or a sparse correction once the
    hierarchy is built; the build leaves the problem's correction as it
    was."""
    grid = GridSpec(sizes, bc)
    A = assemble(grid, "a7" if len(sizes) == 2 else "a3")
    prob = split(A, grid, "a7" if len(sizes) == 2 else "a3")
    before = {o: band.tobytes() for o, band in prob.correction.items()}
    H = build_hierarchy(prob, SolverConfig(method="mgm", pre="gauss-seidel"))
    assert {o: band.tobytes() for o, band in prob.correction.items()} == before
    assert H.n_levels >= 2
    assert H.levels[0].operator is prob.operator
    for lev in H.levels:
        assert getattr(lev, "correction", None) is None
        assert not any(value is prob.correction or value is A for value in vars(lev).values())


def held_arrays(H) -> dict:
    """Bytes of every array the levels and projectors of ``H`` hold."""
    out = {}

    def visit(key, value):
        if isinstance(value, np.ndarray):
            out[key] = value.tobytes()
        elif sp.issparse(value):
            for name in ("data", "indices", "indptr", "offsets"):
                if hasattr(value, name):
                    visit(f"{key}.{name}", getattr(value, name))
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                visit(f"{key}[{i}]", item)

    for s, lev in enumerate(H.levels):
        for owner in (lev, lev.projector):
            for name, value in (vars(owner) if owner is not None else {}).items():
                visit(f"L{s}.{type(owner).__name__}.{name}", value)
    return out


@pytest.mark.parametrize("bc, smoothers", [
    (D, dict(pre="richardson", post="cg", cg_preconditioner="diagonal")),
    (BoundaryCondition.PERIODIC, dict(pre="gauss-seidel", post="richardson",
                                      richardson_scaling="diagonal")),
], ids=["dirichlet-rcg", "periodic-gs"])
def test_solves_leave_hierarchy_arrays_untouched(bc, smoothers):
    """A solve writes into no array of the hierarchy, so no work buffer is
    shared between solves."""
    prob = make_problem((31, 31) if bc is D else (32, 32), "a7", bc)
    H = build_hierarchy(prob, SolverConfig(method="mgm", **smoothers))
    rng = np.random.default_rng(9)
    solve(H, rng.standard_normal(H.levels[0].n), max_iter=5)
    before = held_arrays(H)
    assert any(".operator.data" in key for key in before)
    solve(H, rng.standard_normal(H.levels[0].n), max_iter=5)
    assert held_arrays(H) == before


PAIRS = [(pre, post) for pre in wlmg.mgm.SMOOTHERS for post in wlmg.mgm.SMOOTHERS]


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("options", [{}, dict(richardson_scaling="diagonal",
                                              cg_preconditioner="diagonal")],
                         ids=["global", "diagonal"])
def test_solve_matches_the_full_product_cycle(bc, dim, options):
    """Starting coarse levels from ``None`` and seeding the pre-smoother with
    the stop test's residual changes no bit of the iterate or the history."""
    n = 63 if bc is D else 64
    prob = make_problem((n,) * dim, "a2" if dim == 1 else "a7", bc)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(prob.grid.n_total)
    x_random = rng.standard_normal(prob.grid.n_total)
    for pre, post in PAIRS:
        H = build_hierarchy(prob, SolverConfig(method="mgm", pre=pre, post=post, **options))
        assert H.n_levels >= 3
        for x0 in (None, x_random):
            x, rep = solve(H, b, max_iter=12, x0=x0)
            x_want, res_want = solve_full(H, b, max_iter=12, x0=x0)
            assert x.tobytes() == x_want.tobytes(), (pre, post)
            assert rep.residuals == res_want, (pre, post)


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
def test_vcycle_leaves_x_and_b_untouched(bc):
    """For every smoother pair, with and without a given residual and with
    ``residual=True``, ``vcycle`` modifies neither ``x`` nor ``b`` and
    returns an iterate that shares no memory with them, though the CG
    post-step updates the cycle's correction in place.  The residual it
    returns is None unless the post-smoother is CG."""
    prob = make_problem((31, 31) if bc is D else (32, 32), "a7", bc)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(prob.grid.n_total)
    x = rng.standard_normal(prob.grid.n_total)
    b_before, x_before = b.copy(), x.copy()
    for pre, post in PAIRS:
        H = build_hierarchy(prob, SolverConfig(method="mgm", pre=pre, post=post))
        plain = vcycle(H, 0, x, b)
        given = vcycle(H, 0, x, b, b - H.levels[0].matvec(x))
        pair, r = vcycle(H, 0, x, b, None, residual=True)
        for got in (plain, given, pair):
            assert not np.shares_memory(got, x) and not np.shares_memory(got, b)
            assert same_bits(got, plain), (pre, post)
        assert (r is None) == (post != "cg")
        assert same_bits(x, x_before) and same_bits(b, b_before), (pre, post)


@pytest.mark.parametrize("x0", ["zero", "random"])
def test_cycle_products_per_level(x0, monkeypatch):
    """Dirichlet 63^2 ``richardson+cg``: past the first cycle level 0 makes 3
    products (residual, two CG; the stop test reads the CG step's residual)
    and level 1 makes 3; the Richardson pre-smoothers make none.  A given
    ``x0`` costs one more product in the first cycle."""
    prob, b = make_system((63, 63), "a7")
    H = build_hierarchy(prob, SolverConfig(method="mgm", pre="richardson", post="cg"))
    assert H.n_levels == 3
    level_of = {id(lev): s for s, lev in enumerate(H.levels)}
    counts = [0] * H.n_levels
    matvec = wlmg.mgm._Level.matvec

    def counted(lev, x):
        counts[level_of[id(lev)]] += 1
        return matvec(lev, x)

    monkeypatch.setattr(wlmg.mgm._Level, "matvec", counted)
    start = None if x0 == "zero" else np.random.default_rng(1).standard_normal(H.levels[0].n)
    per_cycle = []
    for cycles in (1, 2, 5):
        counts[:] = [0] * H.n_levels
        _, rep = solve(H, b, max_iter=cycles, x0=start)
        assert rep.iterations == cycles
        per_cycle.append(list(counts))
    first = [3 if x0 == "zero" else 4, 3, 0]
    assert per_cycle[0] == first
    assert per_cycle[1] == [first[0] + 3, 6, 0]
    assert per_cycle[2] == [first[0] + 12, 15, 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_stops_at_a_non_finite_residual(bad, monkeypatch):
    """A cycle that returns a non-finite iterate ends the run at once; the
    next cycle is never given a non-finite residual."""
    prob, b = make_system((15, 15), "a2")
    H = build_hierarchy(prob, SolverConfig(method="tgm"))
    cycle = wlmg.mgm.vcycle
    calls = []

    def breaking(H, s, x, b, r=None, **kwargs):
        if s == 0:
            calls.append(None if r is None else bool(np.isfinite(r).all()))
        out = cycle(H, s, x, b, r, **kwargs)
        if s == 0 and len(calls) == 3:
            out[0][4] = bad
        return out

    monkeypatch.setattr(wlmg.mgm, "vcycle", breaking)
    x, rep = solve(H, b, max_iter=50)
    assert len(calls) == 3 and rep.iterations == 3 and not rep.converged
    assert calls == [None, True, True]
    assert not np.isfinite(rep.residuals[-1]) and np.isfinite(rep.residuals[:-1]).all()
    assert rep.operations == 3 * H.cycle_cost
    assert not np.isfinite(x).all()


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
@pytest.mark.parametrize("sizes, coeff", [((63,), "a2"), ((31, 31), "a7"), ((31, 15), "a2")],
                         ids=["1d-a2", "2d-a7", "2d-rect-a2"])
def test_finest_correction_bands_are_the_split_correction(bc, sizes, coeff):
    """``problem.correction``, which the finest level and the first Galerkin
    product read, is the CSR difference ``A - a_min M`` of
    ``oracles.split_csr`` bit for bit: diagonal by diagonal, offsets
    ascending, and read back as CSR."""
    sizes = tuple(n + (bc is not D) for n in sizes)
    prob = make_problem(sizes, coeff, bc)
    R = split_csr(assemble(prob.grid, coeff), prob.grid, coeff)
    bands, want = prob.correction, bands_of(R)
    assert list(bands) == sorted(want)
    assert all(bands[o].tobytes() == want[o].tobytes() for o in want)
    got = csr_from_bands(dict(bands), prob.grid.n_total)
    assert np.array_equal(got.indptr, R.indptr) and np.array_equal(got.indices, R.indices)
    assert got.data.tobytes() == R.data.tobytes()


def piecewise_1d(x):
    """The 1-D counterpart of ``a7``: 1 on the left half, 100 on the right."""
    return np.where(x < 0.5, 1.0, 100.0)


# H.costs and the nnz of each level's CSR matrix, recorded while the coarse
# corrections were still CSR triple products summed with the structured CSR
HIERARCHY_COSTS = json.loads((Path(__file__).parent / "data" / "hierarchy_costs.json")
                             .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(HIERARCHY_COSTS))
def test_hierarchy_costs_and_nnz_are_unchanged(case):
    bc, dim, pre = case.split("-", 2)
    bc = BoundaryCondition(bc)
    even = bc is not D
    sizes, coeff = ((255 + even,), piecewise_1d) if dim == "1d" else ((63 + even,) * 2, "a7")
    grid = GridSpec(sizes, bc)
    prob = split(assemble(grid, coeff), grid, coeff)
    H = build_hierarchy(prob, SolverConfig(method="mgm", pre=pre, post="richardson"))
    assert [lev.combined.nnz for lev in H.levels] == HIERARCHY_COSTS[case]["nnz"]
    assert [lev.nnz for lev in H.levels] == HIERARCHY_COSTS[case]["nnz"]
    assert H.costs == HIERARCHY_COSTS[case]["costs"]
