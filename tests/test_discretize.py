import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from wlmg.discretize import (BoundaryCondition, DiffusionCoefficient, GridSpec,
                             algebra_for_bc, assemble, build_rhs, make_coefficient,
                             split)
from wlmg.structured import AlgebraKind, StructuredOperator
from wlmg.symbols import CosineSymbol, TensorSymbol

from oracles import (correction_csr, edge_groups, full_dense, infinity_norm, materialize_dense,
                     to_sparse)

BCS = list(BoundaryCondition)


def quadratic_form_oracle(grid, coeff, u):
    """Independent energy: sum of a_mid (u_i - u_j)^2 over stencil edges."""
    total = 0.0
    for a, b, c in edge_groups(grid, coeff):
        for ai, bi, ci in zip(a, b, c):
            ua = u[ai] if ai >= 0 else 0.0
            ub = u[bi] if bi >= 0 else 0.0
            total += ci * (ua - ub) ** 2
    return total


def test_assemble_unit_1d_dirichlet():
    grid = GridSpec((3,), BoundaryCondition.DIRICHLET)
    A = assemble(grid, "a1").toarray()
    assert np.array_equal(A, [[2., -1., 0.], [-1., 2., -1.], [0., -1., 2.]])


def test_assemble_unit_1d_periodic():
    grid = GridSpec((4,), BoundaryCondition.PERIODIC)
    A = assemble(grid, "a1").toarray()
    assert np.array_equal(A[0], [2., -1., 0., -1.])


def test_assemble_variable_row_values():
    grid = GridSpec((3,), BoundaryCondition.DIRICHLET)
    A = assemble(grid, lambda x: x).toarray()
    assert np.allclose(A[1], [-0.375, 1.0, -0.625], atol=1e-15)


@pytest.mark.parametrize("bc", BCS)
def test_unit_coefficient_equals_algebra_matrix(bc):
    for sizes in [(7,), (16,), (5, 6) if bc is not BoundaryCondition.DIRICHLET else (5, 7)]:
        grid = GridSpec(sizes, bc)
        A = assemble(grid, "a1").toarray()
        sym = TensorSymbol.separable_sum([CosineSymbol([2.0, -1.0])] * grid.dim)
        M = materialize_dense(StructuredOperator(algebra_for_bc(bc), sizes, sym))
        assert np.array_equal(A, M)


@pytest.mark.parametrize("bc", BCS)
def test_quadratic_form_identity(bc):
    rng = np.random.default_rng(12)
    for sizes, coeff in [((9,), "a2"), ((8, 8), "a2")]:
        if bc is BoundaryCondition.DIRICHLET:
            sizes = tuple(n - 1 if n % 2 == 0 else n for n in sizes)
        grid = GridSpec(sizes, bc)
        A = assemble(grid, coeff)
        for _ in range(5):
            u = rng.standard_normal(grid.n_total)
            got = float(u @ (A @ u))
            want = quadratic_form_oracle(grid, coeff, u)
            assert got == pytest.approx(want, rel=1e-12)


def test_split_unit_coefficient_zero_correction():
    grid = GridSpec((9,), BoundaryCondition.DIRICHLET)
    prob = split(assemble(grid, "a1"), grid, "a1")
    assert prob.a_min == 1.0
    assert prob.correction == {}


def test_split_amin_and_psd_a2():
    grid = GridSpec((7,), BoundaryCondition.DIRICHLET)
    prob = split(assemble(grid, "a2"), grid, "a2")
    assert prob.a_min == pytest.approx(np.exp(1.0 / 16.0))
    lam = np.linalg.eigvalsh(correction_csr(prob).toarray())
    assert lam.min() >= -1e-10


def test_split_reconstruction_exact():
    for bc in BCS:
        sizes = (15,) if bc is BoundaryCondition.DIRICHLET else (16,)
        grid = GridSpec(sizes, bc)
        A = assemble(grid, "a2")
        prob = split(A, grid, "a2")
        base = to_sparse(StructuredOperator(algebra_for_bc(bc), sizes,
                                            prob.structured.symbol))
        recon = prob.a_min * base.toarray() + correction_csr(prob).toarray()
        assert np.abs(recon - A.toarray()).max() <= 1e-13


def test_split_reads_any_sparse_form_alike():
    """``split`` keeps ``A``'s diagonals, not ``A``; any other sparse form of
    ``A`` gives the same diagonals and the same splitting."""
    grid = GridSpec((7, 7), BoundaryCondition.DIRICHLET)
    A = assemble(grid, "a7")
    prob = split(A, grid, "a7")
    assert not any(value is A for value in vars(prob).values())
    for other in (sp.csr_matrix(A), sp.coo_array(A)):
        got = split(other, grid, "a7")
        assert np.array_equal(got.operator.offsets, prob.operator.offsets)
        assert np.array_equal(got.operator.toarray(), A.toarray())
        assert list(got.correction) == list(prob.correction)
        assert all(np.array_equal(got.correction[o], band)
                   for o, band in prob.correction.items())


@pytest.mark.parametrize("shape", [(48, 48), (49, 48), (7, 7)])
def test_split_rejects_a_misshaped_matrix(shape):
    grid = GridSpec((7, 7), BoundaryCondition.DIRICHLET)
    A = sp.random_array(shape, density=0.2, rng=0, format="csr") + sp.eye_array(*shape)
    with pytest.raises(ValueError, match=r"needs \(49, 49\)"):
        split(A, grid, "a2")


@pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
def test_split_rejects_a_positive_off_diagonal_correction(bc):
    """``a7``'s matrix split with ``a2``'s ``a_min``: the edges of value 1 lie
    below it (1.0983 on these grids), so ``R`` has positive off-diagonal
    entries."""
    grid = GridSpec((15, 15) if bc is BoundaryCondition.DIRICHLET else (16, 16), bc)
    with pytest.raises(ValueError, match=r"^A does not fit coefficient 'a2': .* positive "
                                         r"off-diagonal entry 0\.0983"):
        split(assemble(grid, "a7"), grid, "a2")


@pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
def test_split_rejects_a_non_symmetric_matrix(bc):
    """``a7``'s matrix with one entry halved and its mirror left as it is,
    and with one entry added and no mirror at all."""
    grid = GridSpec((63, 63) if bc is BoundaryCondition.DIRICHLET else (64, 64), bc)
    N = grid.n_total
    A = assemble(grid, "a7")
    halved = sp.csr_array(A, copy=True)
    halved[N - 3, N - 2] = A[N - 3, N - 2] / 2
    with pytest.raises(ValueError, match=rf"^A is not symmetric: A\[{N - 3}, {N - 2}\] = "
                                         rf"-50\.0 but A\[{N - 2}, {N - 3}\] = -100\.0$"):
        split(halved, grid, "a7")
    one_sided = A + sp.csr_array(([-1e-3], ([7], [3])), shape=A.shape)
    with pytest.raises(ValueError, match=r"^A is not symmetric: A\[3, 7\] = 0\.0 but "
                                         r"A\[7, 3\] = -0\.001$"):
        split(one_sided, grid, "a7")


def _with_entries(A, entries):
    """A copy of ``A`` with ``entries`` (``{(i, j): value}``) written in."""
    A = sp.lil_array(A)
    for (i, j), value in entries.items():
        A[i, j] = value
    return sp.csr_array(A)


@pytest.mark.parametrize("make, match", [
    (lambda A: _with_entries(A, {(4, 4): np.nan}), r"A\[4, 4\] = nan$"),
    (lambda A: _with_entries(A, {(4, 4): np.inf}), r"A\[4, 4\] = inf$"),
    (lambda A: _with_entries(A, {(4, 5): np.nan, (5, 4): np.nan}), r"A\[4, 5\] = nan$"),
    (lambda A: A + sp.csr_array(([1j], ([6], [7])), shape=A.shape),
     r"A\[6, 7\] = \(-?[0-9.e-]+\+1j\)$"),
], ids=["nan-diagonal", "inf-diagonal", "nan-pair", "complex"])
def test_split_rejects_a_non_finite_or_complex_matrix(make, match):
    """A 15-point Dirichlet ``a2`` matrix with a NaN or an infinity on the
    diagonal, a mirrored NaN pair, or an imaginary part: ``split`` names the
    first bad entry instead of handing it to SuperLU, the solve or the
    symmetry test, or dropping the imaginary part."""
    grid = GridSpec((15,), BoundaryCondition.DIRICHLET)
    with pytest.raises(ValueError, match=r"^A must be real and finite, but " + match):
        split(make(assemble(grid, "a2")), grid, "a2")


@pytest.mark.parametrize("make", [lambda A: A.astype(complex),
                                  lambda A: sp.csr_array(A.shape, dtype=complex)],
                         ids=["real-entries", "no-entries"])
def test_split_rejects_a_complex_matrix_with_no_imaginary_part(make):
    grid = GridSpec((15,), BoundaryCondition.DIRICHLET)
    with pytest.raises(ValueError, match=r"^A must be real, not of dtype complex128$"):
        split(make(assemble(grid, "a2")), grid, "a2")


def test_split_rejects_a_negative_row_sum():
    """A 1-D Dirichlet matrix whose left boundary edge (0.5) is below the
    splitting's ``a_min`` (1) while every interior edge (2) is above it: the
    off-diagonal entries of ``R`` are -1, and row 0 sums to 0.5 - 1."""
    grid = GridSpec((15,), BoundaryCondition.DIRICHLET)
    h = grid.spacing(0)
    A = assemble(grid, lambda x: np.where(x < h, 0.5, 2.0))
    with pytest.raises(ValueError, match=r"^A does not fit coefficient 'a1': R = A - a_min M "
                                         r"has row 0 summing to -0\.5, below -"):
        split(A, grid, "a1")


def test_split_full_operator_spd():
    for bc in BCS:
        sizes = (16,) if bc is not BoundaryCondition.DIRICHLET else (15,)
        grid = GridSpec(sizes, bc)
        prob = split(assemble(grid, "a2"), grid, "a2")
        lam = np.linalg.eigvalsh(full_dense(prob))
        assert lam.min() > 0


def test_correction_psd_all_presets():
    cases = [((31,), p, 1) for p in ("a1", "a2", "a3", "a2k:2")]
    cases += [((15, 15), p, 2) for p in ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8")]
    for sizes, preset, dim in cases:
        for bc in BCS:
            s = sizes if bc is BoundaryCondition.DIRICHLET else tuple(n + 1 for n in sizes)
            grid = GridSpec(s, bc)
            prob = split(assemble(grid, preset), grid, preset)
            lam = np.linalg.eigvalsh(correction_csr(prob).toarray())
            assert lam.min() >= -1e-10, (bc, preset)


def test_infnorm_oracle_a7():
    grid = GridSpec((15, 15), BoundaryCondition.DIRICHLET)
    prob = split(assemble(grid, "a7"), grid, "a7")
    R = correction_csr(prob)
    want = np.abs(R.toarray()).sum(axis=1).max()
    assert infinity_norm(R) == pytest.approx(want)


def test_build_rhs_modes():
    grid = GridSpec((3,), BoundaryCondition.DIRICHLET)
    assert np.allclose(build_rhs(grid, "ones"), [0.0625] * 3)
    r1 = build_rhs(grid, "random", seed=42)
    r2 = build_rhs(grid, "random", seed=42)
    assert np.array_equal(r1, r2)
    with pytest.raises(ValueError, match="unknown rhs mode 'manufactured'"):
        build_rhs(grid, "manufactured")


def test_random_rhs_needs_a_seed():
    grid = GridSpec((3,), BoundaryCondition.DIRICHLET)
    with pytest.raises(ValueError, match="seed"):
        build_rhs(grid, "random")
    assert not np.array_equal(build_rhs(grid, "random", seed=0),
                              build_rhs(grid, "random", seed=1))


def test_coefficient_errors():
    grid = GridSpec((5,), BoundaryCondition.DIRICHLET)
    with pytest.raises(ValueError):
        assemble(grid, lambda x: x - 0.5)   # nonpositive samples
    with pytest.raises(ValueError):
        make_coefficient("a99", 1)
    with pytest.raises(ValueError):
        make_coefficient("a4", 1)           # square-only preset
    with pytest.raises(ValueError):
        make_coefficient("a2k:x", 1)


def test_a2k_shift_that_overflows_names_the_preset():
    assert make_coefficient("a2k:308", 1).name == "a2k:308"
    with pytest.raises(ValueError, match=r"^preset 'a2k:309': the shift 10\^309 overflows"):
        make_coefficient("a2k:309", 1)


@pytest.mark.parametrize("grid, coeff, name", [
    (GridSpec((15,), BoundaryCondition.DIRICHLET), "a2k:308", "a2k:308"),
    (GridSpec((16,), BoundaryCondition.PERIODIC), "a2k:308", "a2k:308"),
    (GridSpec((5, 5), BoundaryCondition.REFLECTIVE),
     DiffusionCoefficient(lambda x, y: np.full_like(x, 6e307), name="huge"), "huge"),
], ids=["dirichlet", "periodic", "2d-reflective"])
def test_assemble_names_a_coefficient_whose_stencil_overflows(grid, coeff, name):
    """Every sample is finite, but a node's diagonal, the sum of its edges,
    is not: a ``ValueError`` names the coefficient, with no overflow
    warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^coefficient '{name}' overflows a float "
                                             "in the stencil"):
            assemble(grid, coeff)


@pytest.mark.parametrize("sizes, func, match", [
    ((7,), lambda x: np.where(x > 0.5, np.nan, 1.0), "NaN or inf"),
    ((7,), lambda x: np.full_like(x, np.inf), "NaN or inf"),
    ((5, 5), lambda x, y: np.where(y < 0.5, 1.0, -np.inf), "NaN or inf"),
    ((7,), lambda x: np.ones(x.size + 1), r"shape \(9,\)"),
    ((7,), lambda x: 2.0, r"shape \(\)"),
    ((5, 5), lambda x, y: np.ones(x.shape[0]), r"shape \(6,\)"),
], ids=["nan", "inf", "2d-inf", "long", "scalar", "2d-flat"])
def test_assemble_rejects_non_finite_or_misshaped_samples(sizes, func, match):
    grid = GridSpec(sizes, BoundaryCondition.DIRICHLET)
    coeff = DiffusionCoefficient(func, name="spike")
    with pytest.raises(ValueError, match=f"^coefficient 'spike' .*{match}"):
        assemble(grid, coeff)


@pytest.mark.parametrize("sizes, func", [
    ((7,), lambda x: np.exp(x) + 1j),
    ((5, 5), lambda x, y: (1.0 + 0j) * np.ones_like(x)),
], ids=["1d", "2d-zero-imaginary"])
def test_assemble_rejects_complex_coefficient(sizes, func):
    grid = GridSpec(sizes, BoundaryCondition.PERIODIC)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        with pytest.raises(ValueError,
                           match=r"^coefficient 'custom' is complex \(dtype complex128\)"):
            assemble(grid, func)


def test_piecewise_tie_break():
    # midpoints with a coordinate exactly at 1/2 take the delta branch
    a7 = make_coefficient("a7", 2)
    assert a7(0.5, 0.25) == 100.0
    assert a7(0.25, 0.5) == 100.0
    assert a7(0.25, 0.25) == 1.0


@pytest.mark.parametrize("sizes, bad", [((63.9, 63.9), "63.9"), ((15, 7.0), "7.0"),
                                        ((True, 5), "True"), (15.5, "15.5")])
def test_grid_rejects_a_size_that_is_not_an_integer(sizes, bad):
    """A float size is not truncated, and a ``bool`` is not a size."""
    with pytest.raises(ValueError, match=f"^grid size {bad} is not an integer$"):
        GridSpec(sizes, BoundaryCondition.DIRICHLET)


def test_grid_takes_numpy_integer_sizes():
    grid = GridSpec(np.array([7, 5]), BoundaryCondition.DIRICHLET)
    assert grid.sizes == (7, 5) and all(type(n) is int for n in grid.sizes)


@pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
def test_grid_takes_a_boundary_condition_by_name(bc):
    """A name is coerced to the enum, so the grid, its spacing and its matrix
    are those of the member; a string used to fall through to the reflective
    branch of every ``bc is`` test."""
    n = 15 if bc is BoundaryCondition.DIRICHLET else 16
    named, member = GridSpec((n,), bc.value), GridSpec((n,), bc)
    assert named.bc is bc and named == member
    assert named.spacing(0) == member.spacing(0)
    got, want = assemble(named, "a2"), assemble(member, "a2")
    assert (got != want).nnz == 0
    assert split(got, named, "a2").structured.kind is algebra_for_bc(bc)


@pytest.mark.parametrize("bc", [1, None, "neumann", "Dirichlet", AlgebraKind.TAU],
                         ids=["int", "none", "unknown-name", "capitalized", "algebra"])
def test_grid_rejects_a_boundary_condition_it_does_not_know(bc):
    with pytest.raises(ValueError, match=rf"^unknown boundary condition {re.escape(repr(bc))}; "
                                         r"use one of dirichlet, periodic, reflective$"):
        GridSpec((15,), bc)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((2,), BoundaryCondition.DIRICHLET)
    with pytest.raises(ValueError):
        GridSpec((5, 5, 5), BoundaryCondition.DIRICHLET)
