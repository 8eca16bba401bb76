import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from wlmg.discretize import (TWO_D_ONLY_PRESETS, BoundaryCondition, DiffusionCoefficient,
                             GridSpec, _edge_samples, algebra_for_bc, assemble, build_problem,
                             build_rhs, make_coefficient, split)
from wlmg.structured import AlgebraKind, StructuredOperator
from wlmg.symbols import CosineSymbol, TensorSymbol

from oracles import (correction_csr, edge_groups, full_dense, infinity_norm, materialize_dense,
                     preset_function, split_reference, to_sparse)

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


def _explicit_zero_diagonal(A, o: int):
    """``A`` with every entry of the diagonals ``o`` and ``-o`` stored as an
    explicit 0 (``A`` stores none there)."""
    n = A.shape[0]
    i = np.arange(n - o)
    coo = sp.coo_array(A)
    A = sp.csr_array((np.concatenate([coo.data, np.zeros(2 * i.size)]),
                      (np.concatenate([coo.row, i, i + o]),
                       np.concatenate([coo.col, i + o, i]))), shape=A.shape)
    assert A.has_canonical_format and A.nnz == coo.nnz + 2 * i.size
    return A


# the nine grids of ROADMAP item 2, where splits are compared bit for bit
SPLIT_GRIDS = [((511, 511), "dirichlet", "a7"), ((512, 512), "periodic", "a7"),
               ((128, 128), "reflective", "a2"), ((63, 63), "dirichlet", "a8"),
               ((16,), "periodic", "a2"), ((31,), "reflective", "a3"), ((7,), "dirichlet", "a1"),
               ((4, 4), "periodic", "a8"), ((4,), "reflective", "a2")]


@pytest.mark.parametrize("sizes, bc, coeff, form", [
    *((*case, "csr") for case in SPLIT_GRIDS),
    *((*case, "build_problem") for case in SPLIT_GRIDS),
    ((15, 15), "dirichlet", "a7", "coo"), ((16,), "periodic", "a3", "coo"),
    ((15, 15), "dirichlet", "a7", "explicit zero"), ((8, 8), "reflective", "a2", "explicit zero"),
    ((7, 7), "periodic", "a1", "int64"),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_split_equals_the_reference_split(sizes, bc, coeff, form):
    """``split`` reads ``A`` straight into its diagonal table; its
    ``operator`` (offsets and data), ``correction`` (keys and bytes) and
    ``a_min`` equal those of the split that read ``A`` into bands first
    (``oracles.split_reference``) bit for bit, on a COO input, an integer
    one and a CSR that stores a diagonal of explicit zeros too.  So do those
    of ``build_problem``, which keeps the stencil's own table and never
    forms ``A`` as CSR."""
    grid = GridSpec(sizes, bc)
    A = assemble(grid, coeff)
    if form == "coo":
        A = sp.coo_array(A)
    elif form == "int64":       # the unit coefficient's entries are integers
        A = A.astype(np.int64)
    elif form == "explicit zero":
        A = _explicit_zero_diagonal(A, 2)
    got = build_problem(grid, coeff) if form == "build_problem" else split(A, grid, coeff)
    want = split_reference(A, grid, coeff)
    assert got.a_min.hex() == want.a_min.hex()
    assert got.operator.offsets.dtype == want.operator.offsets.dtype
    assert got.operator.offsets.tolist() == want.operator.offsets.tolist()
    assert got.operator.data.tobytes() == want.operator.data.tobytes()
    assert list(got.correction) == list(want.correction)
    assert all(got.correction[o].tobytes() == band.tobytes()
               for o, band in want.correction.items())
    if form == "explicit zero":
        assert 2 not in got.operator.offsets and 2 not in got.correction


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


@pytest.mark.parametrize("seed", [-1, np.int64(-3)], ids=["int", "numpy-int"])
def test_random_rhs_names_a_negative_seed(seed):
    """numpy's own error, "expected non-negative integer", names neither
    the seed nor its value."""
    grid = GridSpec((3,), BoundaryCondition.DIRICHLET)
    with pytest.raises(ValueError, match=r"^random mode needs a non-negative integer seed, "
                                         r"not -\d$"):
        build_rhs(grid, "random", seed=seed)


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


@pytest.mark.parametrize("dim", [0, 3, -1])
def test_make_coefficient_refuses_a_dimension_other_than_1_or_2(dim):
    """A preset's form is picked by dimension: dim 0 would read the square's
    expression, dim 3 none at all."""
    for spec in ("a1", "a2", "x", lambda x: x):
        with pytest.raises(ValueError, match=f"dim must be 1 or 2, not {dim}$"):
            make_coefficient(spec, dim)


def test_expression_value_that_does_not_broadcast_names_both_shapes():
    x = np.linspace(0.1, 0.9, 8)
    with pytest.raises(ValueError, match=re.escape(
            "coefficient expression '[1.0, 2.0]' has a value of shape (2,), which does "
            "not broadcast to the sample points' shape (8,)")):
        make_coefficient("[1.0, 2.0]", 1)(x)


PRESETS = ([f"a{i}" for i in range(1, 9)] + [f"a2k:{k}" for k in range(6)]
           + ["a2k:308"])


@pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
@pytest.mark.parametrize("dim", [1, 2])
def test_presets_equal_their_callables_bit_for_bit(bc, dim):
    """Each preset, an expression now, samples every edge as the callable
    it replaced did, bit for bit, and keeps its name."""
    for n in (7, 16, 31):
        grid = GridSpec((n,) * dim, bc)
        for name in PRESETS:
            if dim == 1 and name in TWO_D_ONLY_PRESETS:
                continue
            coeff = make_coefficient(name, dim)
            assert coeff.name == name
            want = _edge_samples(grid, DiffusionCoefficient(preset_function(name, dim)))
            for got, ref in zip(_edge_samples(grid, coeff), want, strict=True):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (name, n)
    assert TWO_D_ONLY_PRESETS == ("a4", "a5", "a6", "a7", "a8")


@pytest.mark.parametrize("spec, value", [("2", 2.0), ("x", None), ("1e3", 1000.0)])
def test_a_string_that_is_no_preset_is_an_expression(spec, value):
    x = np.array([0.25, 0.5, 0.75])
    got = make_coefficient(spec, 1)(x)
    assert got.dtype == float and np.array_equal(got, x if value is None else np.full(3, value))
    assert make_coefficient(spec, 1).name == spec


def test_expression_value_of_the_sample_shape_is_returned_as_it_is():
    """A value of the points' shape is not copied; a scalar is broadcast
    into a new array."""
    x = np.array([0.25, 0.75])
    assert make_coefficient("x", 1).func(x) is x
    one = make_coefficient("a1", 1).func(x)
    assert one.flags.writeable and np.array_equal(one, [1.0, 1.0])


def test_bare_unknown_name_names_it():
    with pytest.raises(ValueError, match="^name 'a9' not allowed in coefficient expressions"):
        make_coefficient("a9", 2)


def test_expression_may_not_index_or_slice():
    for spec in ("x[::-1]+1", "1+x[0]", "exp(x + y[0])"):
        with pytest.raises(ValueError, match=f"^coefficient expression {re.escape(repr(spec))} "
                                             "may not index or slice"):
            make_coefficient(spec, 2)


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


DEGENERATE = [((64,), "periodic", "0*x", "0.0"), ((32, 32), "reflective", "0*x", "0.0"),
              ((15,), "dirichlet", "-1+0*x", "-1.0"), ((15,), "dirichlet", "1e-310", "1e-310"),
              ((15, 15), "periodic", "where(x<0.5,1e-310,1)", "1e-310")]


@pytest.mark.parametrize("entry", ["assemble", "split", "build_problem"])
@pytest.mark.parametrize("sizes, bc, coeff, least", DEGENERATE,
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None)
def test_a_least_sample_that_is_not_a_positive_normal_float_is_refused(entry, sizes, bc,
                                                                       coeff, least):
    """A least sample <= 0 or subnormal is refused by each entry point,
    naming the coefficient.  Before, ``split`` took ``"0*x"`` and the solve
    diverged (residual 1e12 after 200 cycles), and ``"-1+0*x"`` or
    ``"1e-310"`` ended in SuperLU's "exactly singular" error."""
    grid = GridSpec(sizes, bc)
    call = {"assemble": lambda: assemble(grid, coeff),
            "split": lambda: split(assemble(grid, "a2"), grid, coeff),
            "build_problem": lambda: build_problem(grid, coeff)}[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call()
    assert str(exc.value) == (f"coefficient {coeff!r} has the least sample {least}; it must "
                              "be positive and normal, at least 2.2250738585072014e-308")


@pytest.mark.parametrize("coeff, least", [("1e-300", 1e-300), ("3e-308", 3e-308),
                                          ("where(x<0.5,3e-308,1)", 3e-308)])
def test_a_tiny_normal_least_sample_is_taken(coeff, least):
    grid = GridSpec((15,), "dirichlet")
    assert build_problem(grid, coeff).a_min == split(assemble(grid, coeff), grid, coeff).a_min
    assert build_problem(grid, coeff).a_min == least


@pytest.mark.parametrize("dim", [1, 2])
def test_build_problem_samples_a_callable_once(dim):
    """A callable coefficient is called once per sweep direction by
    ``build_problem``, and twice as often by ``split(assemble(...))``."""
    calls = []

    def func(*coords):
        calls.append(coords[0].shape)
        return np.exp(coords[0])

    grid, coeff = GridSpec((7,) * dim, "periodic"), DiffusionCoefficient(func)
    build_problem(grid, coeff)
    assert len(calls) == dim
    calls.clear()
    split(assemble(grid, coeff), grid, coeff)
    assert len(calls) == 2 * dim


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
