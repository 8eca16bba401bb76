import tracemalloc

import numpy as np
import pytest

from wlmg.discretize import BoundaryCondition, GridSpec, assemble, split
from wlmg.mgm import build_hierarchy
from wlmg import symbols
from wlmg.symbols import CosineSymbol, TensorSymbol, fold, fold_pairsum

LAPLACE = CosineSymbol([2.0, -1.0])
SMOOTH = CosineSymbol([2.0, 1.0])


def test_eval_examples():
    assert LAPLACE.eval(np.pi) == pytest.approx(4.0)
    assert LAPLACE.eval(0.0) == pytest.approx(0.0)
    assert SMOOTH.eval(np.pi / 2) == pytest.approx(2.0)


def test_eval_even_symmetry():
    rng = np.random.default_rng(7)
    f = CosineSymbol(rng.standard_normal(4))
    t = rng.uniform(-np.pi, np.pi, size=64)
    assert np.allclose(f.eval(t), f.eval(-t), atol=1e-13)


def test_product_known_value():
    # (2-2cos)(2+2cos) = 4 - 4cos^2 = 2 - 2cos(2t)
    prod = LAPLACE * SMOOTH
    assert prod.coeffs.tolist() == [2.0, 0.0, -1.0]
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    assert np.allclose(prod.eval(t), LAPLACE.eval(t) * SMOOTH.eval(t), atol=1e-13)


def test_product_identity_and_zero():
    one = CosineSymbol([1.0])
    zero = CosineSymbol([0.0])
    assert (LAPLACE * one) == LAPLACE
    assert (zero * SMOOTH) == zero


def test_a_scalar_multiple_is_scaled_not_a_product():
    """``*`` multiplies two symbols; a scalar multiple is ``scaled``."""
    assert LAPLACE.scaled(2.0) == CosineSymbol([4.0, -2.0])
    for product in (lambda: LAPLACE * 2.0, lambda: 2.0 * LAPLACE):
        with pytest.raises(TypeError):
            product()


def test_product_pointwise_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = CosineSymbol(rng.standard_normal(rng.integers(1, 5)))
        g = CosineSymbol(rng.standard_normal(rng.integers(1, 5)))
        t = rng.uniform(0, 2 * np.pi, size=64)
        assert np.allclose((f * g).eval(t), f.eval(t) * g.eval(t), atol=1e-13)


def test_fold_identity_random_angles():
    rng = np.random.default_rng(3)
    for _ in range(8):
        g = CosineSymbol(rng.standard_normal(rng.integers(1, 6)))
        th = rng.uniform(0, 2 * np.pi, size=64)
        lhs = fold(g).eval(th)
        rhs = 0.5 * (g.eval(th / 2) + g.eval(th / 2 + np.pi))
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_fold_trivia():
    assert fold(CosineSymbol([5.0])) == CosineSymbol([5.0])
    assert fold(CosineSymbol([0.0, 3.0])) == CosineSymbol([0.0])


def test_fold_galerkin_coarse_symbol():
    # (1/sqrt2)^2 * fold(p^2 f) reproduces f = 2 - 2cos exactly
    coarse = fold(SMOOTH * (SMOOTH * LAPLACE)).scaled(0.5)
    assert coarse == LAPLACE


def test_fold_self_similarity_two_levels():
    p_norm = SMOOTH.scaled(1.0 / np.sqrt(2.0))
    f = LAPLACE
    for _ in range(2):
        f = fold(p_norm * (p_norm * f))
        assert np.allclose(f.coeffs, LAPLACE.coeffs, atol=1e-14)


def test_fold_pairsum_identity_random_angles():
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = CosineSymbol(rng.standard_normal(rng.integers(1, 6)))
        th = rng.uniform(0, 2 * np.pi, size=64)
        lhs = fold_pairsum(g).eval(th)
        rhs = (1 + np.cos(th / 2)) * g.eval(th / 2) + \
              (1 - np.cos(th / 2)) * g.eval(th / 2 + np.pi)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_fold_pairsum_known_value():
    # pair-summing fold of p^2 f gives 10 - 8cos - 2cos(2t)
    out = fold_pairsum(SMOOTH * (SMOOTH * LAPLACE))
    assert out.coeffs.tolist() == [10.0, -4.0, -1.0]
    assert out.eval(0.0) == pytest.approx(0.0)


def test_supnorm_values():
    """A 1-D symbol's sup norm is that of its one-factor tensor symbol: the
    max of ``|f|`` over 1025 angles from 0 to pi."""
    one_d = TensorSymbol.from_1d(LAPLACE)
    assert one_d.sup_norm() == pytest.approx(4.0)
    t = np.linspace(0.0, np.pi, 1025)
    assert one_d.sup_norm() == float(np.max(np.abs(LAPLACE.eval(t))))
    two_d = TensorSymbol.separable_sum([LAPLACE, LAPLACE])
    assert two_d.sup_norm() == pytest.approx(8.0)
    assert TensorSymbol.from_1d(CosineSymbol([0.0])).sup_norm() == 0.0


def level_symbols(bc, n, preset):
    grid = GridSpec((n, n), BoundaryCondition(bc))
    H = build_hierarchy(split(assemble(grid, preset), grid, preset))
    return [lev.structured.symbol for lev in H.levels]


TWO_D_PRESETS = ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8")


@pytest.mark.parametrize("bc,n", [("dirichlet", 63), ("periodic", 64), ("reflective", 64)])
def test_blocked_supnorm_equals_full_grid_on_every_level(bc, n):
    """Every level of every 2-D preset."""
    t, short = np.linspace(0.0, np.pi, 1025), np.linspace(0.0, np.pi, 100)
    for preset in TWO_D_PRESETS:
        for sym in level_symbols(bc, n, preset):
            assert sym.sup_norm() == float(np.max(np.abs(sym.eval_grid([t, t]))))
            # 100 points leave a last block of 4
            assert sym.sup_norm(npoints=100) == float(
                np.max(np.abs(sym.eval_grid([short, short]))))


def record_sup_paths(monkeypatch):
    """The path each later ``sup_norm`` call takes, in order."""
    taken = []
    for path in ("_sup_by_rows", "_sup_by_blocks"):
        def recording(*args, _path=path, _run=getattr(symbols, path)):
            taken.append(_path)
            return _run(*args)
        monkeypatch.setattr(symbols, path, recording)
    return taken


@pytest.mark.parametrize("bc,n,by_rows", [
    ("dirichlet", 63, [True, True]), ("periodic", 64, [True, True]),
    ("dirichlet", 511, [True] * 5), ("reflective", 128, [True, False, False])])
def test_smoothing_levels_take_the_row_path_where_an_axis_is_affine(bc, n, by_rows, monkeypatch):
    """Every smoothing level of Dirichlet and periodic 2-D hierarchies has a
    symbol whose factors on one axis are affine in ``cos t`` and is bounded
    by rows; reflective coarse levels, wider on both axes, by blocks."""
    smoothing = level_symbols(bc, n, "a7")[:-1]
    taken = record_sup_paths(monkeypatch)
    for sym in smoothing:
        sym.sup_norm()
    assert taken == ["_sup_by_rows" if rows else "_sup_by_blocks" for rows in by_rows]


@pytest.mark.parametrize("terms, path", [
    ([(LAPLACE, SMOOTH)], "_sup_by_rows"),
    ([(CosineSymbol([1.0, 2.0, 3.0]), SMOOTH)], "_sup_by_rows"),
    ([(SMOOTH, CosineSymbol([1.0, 2.0, 3.0]))], "_sup_by_rows"),
    ([(CosineSymbol([1.0, 2.0, 3.0]), CosineSymbol([1.0, 2.0, 3.0]))], "_sup_by_blocks"),
    ([(LAPLACE, SMOOTH), (CosineSymbol([np.nan]), SMOOTH)], "_sup_by_blocks"),
    ([(LAPLACE, CosineSymbol([np.inf, 1.0]))], "_sup_by_blocks"),
    # 2 c_1 overflows: the factor's values are not finite
    ([(LAPLACE, CosineSymbol([0.0, 1e308]))], "_sup_by_blocks"),
])
def test_sup_norm_path_is_chosen_from_the_input(terms, path, monkeypatch):
    taken = record_sup_paths(monkeypatch)
    sym = TensorSymbol(2, terms)
    t = np.linspace(0.0, np.pi, 100)
    with np.errstate(invalid="ignore", over="ignore"):
        got = sym.sup_norm(100)
        want = np.max(np.abs(sym.eval_grid([t, t])))
    assert taken == [path]
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("npoints", [3, 17, 1025])
@pytest.mark.parametrize("x, c0, slope", [
    ([1.0], [1.0], [1.0]),
    ([0.75, -3.0, 1e-3], [2.0, 0.5, -7.0], [1.0, -0.25, 3.0]),
    ([1.0, 1.0], [1.0, -1.0], [1.0, -1.0 + 2.0 ** -20]),     # slopes that nearly cancel
])
def test_sup_norm_rows_either_side_of_the_flat_test(x, c0, slope, npoints):
    """Rows of ``sum_k x_k (c_k0 + 2 s c_k1 cos t)`` whose slope ``s B`` sits
    just below the flat test are evaluated whole, just above it only at
    their ends; both ways the max is the full grid's, bit for bit."""
    coeffs = lambda s: np.array([(a, s * b) for a, b in zip(c0, slope)])
    rows = np.repeat(np.array(x)[:, None], npoints, axis=1)
    whole = lambda s: symbols._whole_rows(rows, coeffs(s), npoints)
    lo, hi = 0.0, 1.0
    assert whole(lo).all() and not whole(hi).any()
    while (mid := (lo + hi) / 2) not in (lo, hi):      # bisect to adjacent floats
        lo, hi = (mid, hi) if whole(mid).all() else (lo, mid)
    assert np.nextafter(lo, 2.0) == hi
    t = np.linspace(0.0, np.pi, npoints)
    for s in (lo, hi):
        sym = TensorSymbol(2, [(CosineSymbol([xk]), CosineSymbol(ck))
                               for xk, ck in zip(x, coeffs(s))])
        assert sym.sup_norm(npoints) == np.max(np.abs(sym.eval_grid([t, t])))


@pytest.mark.parametrize("bc,n", [("dirichlet", 63), ("periodic", 64), ("reflective", 64)])
def test_supnorm_peak_memory_under_two_grid_strips(bc, n):
    """``sup_norm`` holds less than two 16-row strips of the 1025-point
    grid (262400 bytes), allocations of every kind counted."""
    three_terms = TensorSymbol(2, [(LAPLACE, SMOOTH), (SMOOTH, LAPLACE), (SMOOTH, SMOOTH)])
    for sym in level_symbols(bc, n, "a7") + [three_terms]:
        sym.sup_norm()
        tracemalloc.start()
        try:
            sym.sup_norm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * 1025 * 8


def test_tensor_eval_matches_sum():
    ts = TensorSymbol.separable_sum([LAPLACE, SMOOTH])
    rng = np.random.default_rng(2)
    t1, t2 = rng.uniform(0, 2 * np.pi, size=(2, 16))
    assert np.allclose(ts.eval(t1, t2), LAPLACE.eval(t1) + SMOOTH.eval(t2), atol=1e-13)


def test_trailing_zero_trim():
    f = CosineSymbol([1.0, 2.0, 0.0, 0.0])
    assert f.degree == 1
    t = np.linspace(0, np.pi, 9)
    assert np.allclose(f.eval(t), CosineSymbol([1.0, 2.0]).eval(t))
