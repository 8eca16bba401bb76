"""The solve path's sparse products call SciPy's compiled kernels directly.

A ``structured.BoundProduct`` passes SciPy's private ``_sparsetools``
kernel the arrays of a sparse matrix (DIA, CSR or CSC), bound once.  Here
each product the solve path stores is held to SciPy's own ``@`` bit for
bit, so a SciPy release that changes the private signature fails these
tests instead of returning wrong numbers.  ``structured`` is the one
module that may name ``_sparsetools`` or ``_superlu``, and the raw kernels
do not check lengths, so each product must refuse a vector of the wrong
length.  ``structured.TriangularFactor`` solves with a Gauss-Seidel
triangle by ``_superlu.gstrs``; it is held to a column-by-column forward
substitution bit for bit, and to SuperLU's own factor of the triangle.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import wlmg
from wlmg.discretize import BoundaryCondition, GridSpec, assemble, split
from wlmg.mgm import SolverConfig, build_hierarchy
from wlmg.structured import BoundProduct, TriangularFactor

from oracles import dia_triangles, forward_substitution, gs_triangle_product, jump_1000

BCS = list(BoundaryCondition)
MODULES = sorted(Path(wlmg.__file__).parent.glob("*.py"))


def hierarchy(bc, dim, **config):
    n = 31 if bc is BoundaryCondition.DIRICHLET else 32
    grid = GridSpec((n,) * dim, bc)
    coeff = "a2" if dim == 1 else "a7"
    return build_hierarchy(split(assemble(grid, coeff), grid, coeff),
                           SolverConfig(method="mgm", **config))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def inputs(n, rng):
    """A float vector, a strided view and an integer vector of length ``n``."""
    return (rng.standard_normal(n) + 3.0, rng.standard_normal(2 * n)[::2],
            rng.integers(-5, 6, n))


def stored_products(lev) -> list:
    """The bound products a level keeps, each with the matrix it multiplies
    by, rebuilt from the level's own arrays: the level operator, and on a
    smoothing level the Gauss-Seidel step's ``triu(A, 1)`` and the
    projector's ``p^T`` (CSR) and ``p`` (CSC)."""
    products = [(lev._product, lev.operator)]
    if lev.projector is not None:
        proj = lev.projector
        products += [(lev._ensure_gs()[2], dia_triangles(lev)[1]),
                     (proj._restrict, sp.csr_array(proj.to_sparse().T)),
                     (proj._prolong, proj.to_sparse())]
    return products


@pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
@pytest.mark.parametrize("dim", [1, 2])
def test_each_kernel_equals_scipy_matmul(bc, dim):
    """Every level operator, both Gauss-Seidel triangles, ``p`` and ``p^T``:
    a bound product gives ``@``'s result bit for bit, float64 out, on the
    products the levels store and on ones bound here."""
    H = hierarchy(bc, dim, pre="gauss-seidel")
    rng = np.random.default_rng(5)
    assert H.n_levels >= 2
    for lev in H.levels:
        products = stored_products(lev)
        products += [(BoundProduct(t), t) for t in dia_triangles(lev)]
        for product, A in products:
            assert product.matrix.format == A.format
            for x in inputs(A.shape[1], rng):
                want = A @ x
                assert want.dtype == np.float64
                assert same_bits(product(x), want)


@pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
def test_a_vector_of_the_wrong_length_raises(bc):
    """One entry short or one long, or a column, is a ``ValueError`` naming
    the expected length, not a read past the end of the vector; so are the
    level product and the transfers built on them."""
    H = hierarchy(bc, 2, pre="gauss-seidel")
    for lev in H.levels:
        for product, A in stored_products(lev):
            n = A.shape[1]
            for x in (np.ones(n - 1), np.ones(n + 1), np.ones((n, 1))):
                with pytest.raises(ValueError, match=f"expected a vector of length {n},"):
                    product(x)
        for n in (lev.n - 1, lev.n + 1):
            with pytest.raises(ValueError, match=f"expected a vector of length {lev.n},"):
                lev.matvec(np.ones(n))
        proj = lev.projector
        if proj is None:
            continue
        for n in (proj.n_fine - 1, proj.n_fine + 1):
            with pytest.raises(ValueError, match=f"expected a vector of length {proj.n_fine},"):
                proj.restrict(np.ones(n))
        for n in (proj.n_coarse - 1, proj.n_coarse + 1):
            with pytest.raises(ValueError,
                               match=f"expected a vector of length {proj.n_coarse},"):
                proj.prolong(np.ones(n))


def test_a_bound_product_takes_only_float64_dia_csr_or_csc():
    A = sp.random_array((5, 4), density=0.5, format="csr", rng=1)
    for fmt in ("dia", "csr", "csc"):
        product = BoundProduct(A.asformat(fmt))
        assert same_bits(product(np.arange(4.0)), A @ np.arange(4.0))
    with pytest.raises(TypeError, match="coo"):
        BoundProduct(A.tocoo())
    with pytest.raises(TypeError, match="float64"):
        BoundProduct(A.astype(np.float32))


@pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
@pytest.mark.parametrize("sizes, coeff", [((64,), "a2"), ((64,), jump_1000),
                                          ((64, 64), "a8"), ((64, 64), jump_1000)],
                         ids=["1d-a2", "1d-jump1000", "2d-a8", "2d-jump1000"])
def test_triangular_solve_is_forward_substitution(bc, sizes, coeff):
    """On every smoothing level the stored Gauss-Seidel triangle ``F`` (the
    interleaved 2N-by-2N one on periodic and reflective levels) solves as
    ``oracles.forward_substitution`` of ``F`` bit for bit, and as SuperLU's
    factor of ``F`` to 1e-14 relative.  Its arrays are that factor's ``L``
    with the pivots, ``U``'s diagonal, in place of its unit diagonal, bit
    for bit."""
    if bc is BoundaryCondition.DIRICHLET:
        sizes = tuple(n - 1 for n in sizes)
    grid = GridSpec(sizes, bc)
    H = build_hierarchy(split(assemble(grid, coeff), grid, coeff),
                        SolverConfig(pre="gauss-seidel", post="gauss-seidel"))
    assert H.n_levels >= 3
    rng = np.random.default_rng(17)
    for lev in H.levels[:-1]:
        F, factor = gs_triangle_product(lev), lev._gs[1]
        n = F.shape[0]
        assert factor.shape == (n, n) and n == (lev.n if lev.gamma is None else 2 * lev.n)
        lu = spla.splu(F, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       relax=1, panel_size=1)
        L, first = sp.csc_array(lu.L), factor.indptr[:-1]
        L.sort_indices()
        pivots = factor.data[first]
        assert same_bits(pivots, lu.U.diagonal()) and lu.U.nnz == n
        unit = factor.data.copy()
        unit[first] = 1.0
        assert same_bits(factor.indptr, L.indptr) and same_bits(factor.indices, L.indices)
        assert same_bits(unit, L.data)
        for b in (rng.standard_normal(n), rng.standard_normal(n) + 5.0):
            got = factor.solve(b)
            assert same_bits(got, forward_substitution(F, b))
            want = lu.solve(b)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_triangular_factor_checks_its_triangle_and_vector():
    """A column that does not start with its pivot is a ``ValueError``, a
    stored zero pivot a ``ZeroDivisionError`` naming the column, and a
    vector of the wrong length a ``ValueError``; ``solve`` leaves ``b``."""
    F = sp.csc_array(np.array([[2.0, 0.0, 0.0], [-1.0, 4.0, 0.0], [0.5, -1.0, 8.0]]))
    factor = TriangularFactor(sp.csc_array(F, copy=True))
    b = np.array([1.0, 2.0, 3.0])
    x = factor.solve(b)
    assert same_bits(x, forward_substitution(F, b))
    assert same_bits(b, np.array([1.0, 2.0, 3.0]))
    assert np.allclose(F @ x, b, rtol=1e-15)
    for n in (2, 4):
        with pytest.raises(ValueError):
            factor.solve(np.ones(n))
    with pytest.raises(ValueError, match="start with its pivot"):
        TriangularFactor(sp.csc_array(F.T))                     # upper: row 0 first
    with pytest.raises(ValueError, match="start with its pivot"):
        TriangularFactor(sp.csc_array(F + F.T))                 # not a triangle
    with pytest.raises(ValueError, match="square"):
        TriangularFactor(sp.csc_array(F[:, :2]))
    zero = sp.csc_array(F, copy=True)
    zero.data[zero.indptr[1]] = 0.0
    with pytest.raises(ZeroDivisionError, match="column 1"):
        TriangularFactor(zero)


def test_a_scipy_without_gstrs_fails_at_import():
    code = ("import scipy.sparse.linalg._dsolve._superlu as s\n"
            "del s.gstrs\n"
            "import wlmg\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(Path(wlmg.__file__).parents[1])})
    assert out.returncode != 0
    assert "ImportError: wlmg needs SciPy's SuperLU triangular solve" in out.stderr
    assert "_superlu.gstrs" in out.stderr


PRIVATE = ("_sparsetools", "_superlu")


def private_uses(source: str) -> dict:
    """The lines that import or name each of SciPy's private modules in
    ``PRIVATE``, in any form."""
    found = {name: set() for name in PRIVATE}
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        for private in PRIVATE:
            if any(private in name for name in names):
                found[private].add(node.lineno)
    return {name: sorted(lines) for name, lines in found.items()}


def test_the_check_sees_each_form_of_use():
    source = ("from scipy.sparse import _sparsetools\n"
              "import scipy.sparse._sparsetools as k\n"
              "from scipy.sparse._sparsetools import csr_matvec\n"
              "sp._sparsetools.dia_matvec()\n"
              "f = _sparsetools\n"
              "from scipy.sparse.linalg._dsolve import _superlu\n"
              "import scipy.sparse.linalg._dsolve._superlu as s\n"
              "from scipy.sparse.linalg._dsolve._superlu import gstrs\n"
              "spla._dsolve._superlu.gstrs()\n"
              "g = _superlu\n")
    assert private_uses(source) == {"_sparsetools": [1, 2, 3, 4, 5],
                                    "_superlu": [6, 7, 8, 9, 10]}
    assert private_uses("sparsetools = 1\nsuperlu = spla.splu\nA @ x\n") == {
        "_sparsetools": [], "_superlu": []}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_structured_calls_the_kernels(path):
    uses = private_uses(path.read_text(encoding="utf-8"))
    for name in PRIVATE:
        if path.name == "structured.py":
            assert uses[name], name
        else:
            assert uses[name] == [], name
