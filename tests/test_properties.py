"""Property tests of the algebraic identities the solver relies on.

* ``assemble`` builds the stencil band by band; it equals the COO assembly
  of ``oracles.assemble_coo`` bit for bit.
* ``mgm._by_diagonals`` stores a CSR matrix by diagonals; products with it
  equal the CSR products bit for bit.
* ``Projector.restrict`` is the exact adjoint of ``Projector.prolong``.
* Smoothing steps never modify ``x`` or ``b``; ``x=None`` steps as from
  zero and a given residual ``r = b - A x`` steps as without it, bit for
  bit (the given ``r`` is consumed).

Examples are derandomized, so every run checks the same cases.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wlmg.discretize import (TWO_D_ONLY_PRESETS, BoundaryCondition, DiffusionCoefficient,
                             GridSpec, assemble, split)
from wlmg.mgm import SMOOTHERS, LevelHierarchy, SolverConfig, _by_diagonals, build_hierarchy
from wlmg.structured import AlgebraKind
from wlmg.transfer import Projector

from oracles import assemble_coo

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
