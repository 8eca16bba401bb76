"""The solve path's sparse products call SciPy's compiled kernels directly.

``structured.dia_matvec``, ``csr_matvec`` and ``csc_matvec`` pass SciPy's
private ``_sparsetools`` kernels the arrays of a sparse matrix.  Here each
is held to SciPy's own ``@`` bit for bit on every operator the solve path
multiplies by, so a SciPy release that changes the private signature fails
these tests instead of returning wrong numbers.  ``structured`` is the one
module that may name ``_sparsetools``, and the raw kernels do not check
lengths, so each product must refuse a vector of the wrong length.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import wlmg
from wlmg.discretize import BoundaryCondition, GridSpec, assemble, split
from wlmg.mgm import SolverConfig, build_hierarchy
from wlmg.structured import csc_matvec, csr_matvec, dia_matvec

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


@pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
@pytest.mark.parametrize("dim", [1, 2])
def test_each_kernel_equals_scipy_matmul(bc, dim):
    """Every level operator, both Gauss-Seidel triangles, ``p`` and ``p^T``:
    the direct kernel gives ``@``'s result bit for bit, float64 out."""
    H = hierarchy(bc, dim)
    rng = np.random.default_rng(5)
    assert H.n_levels >= 2
    for lev in H.levels:
        products = [(dia_matvec, lev.operator), *((dia_matvec, t) for t in lev._triangles())]
        if lev.projector is not None:
            products += [(csr_matvec, lev.projector._transpose),
                         (csc_matvec, lev.projector.to_sparse())]
        for kernel, A in products:
            for x in inputs(A.shape[1], rng):
                want = A @ x
                assert want.dtype == np.float64
                assert same_bits(kernel(A, x), want)


@pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.value)
def test_a_vector_of_the_wrong_length_raises(bc):
    """One entry short or one long is a ``ValueError``, not a read past the
    end of the vector."""
    H = hierarchy(bc, 2)
    for lev in H.levels:
        for n in (lev.n - 1, lev.n + 1):
            with pytest.raises(ValueError):
                lev.matvec(np.ones(n))
            with pytest.raises(ValueError):
                dia_matvec(lev.operator, np.ones(n))
        proj = lev.projector
        if proj is None:
            continue
        for n in (proj.n_fine - 1, proj.n_fine + 1):
            with pytest.raises(ValueError):
                proj.restrict(np.ones(n))
            with pytest.raises(ValueError):
                csr_matvec(proj._transpose, np.ones(n))
        for n in (proj.n_coarse - 1, proj.n_coarse + 1):
            with pytest.raises(ValueError):
                proj.prolong(np.ones(n))
            with pytest.raises(ValueError):
                csc_matvec(proj.to_sparse(), np.ones(n))


def sparsetools_uses(source: str) -> list:
    """Lines that import or name ``_sparsetools``, in any form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        if any("_sparsetools" in name for name in names):
            found.add(node.lineno)
    return sorted(found)


def test_the_check_sees_each_form_of_use():
    source = ("from scipy.sparse import _sparsetools\n"
              "import scipy.sparse._sparsetools as k\n"
              "from scipy.sparse._sparsetools import csr_matvec\n"
              "sp._sparsetools.dia_matvec()\n"
              "f = _sparsetools\n")
    assert sparsetools_uses(source) == [1, 2, 3, 4, 5]
    assert sparsetools_uses("sparsetools = 1\nA @ x\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_structured_calls_the_kernels(path):
    uses = sparsetools_uses(path.read_text(encoding="utf-8"))
    if path.name == "structured.py":
        assert uses
    else:
        assert uses == []
