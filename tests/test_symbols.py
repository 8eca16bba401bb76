import tracemalloc

import numpy as np
import pytest

from wlmg.discretize import BoundaryCondition, GridSpec, assemble, split
from wlmg.mgm import build_hierarchy
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
    assert LAPLACE.sup_norm() == pytest.approx(4.0)
    two_d = TensorSymbol.separable_sum([LAPLACE, LAPLACE])
    assert two_d.sup_norm() == pytest.approx(8.0)
    assert CosineSymbol([0.0]).sup_norm() == 0.0


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
