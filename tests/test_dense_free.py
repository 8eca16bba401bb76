"""The solver forms no dense matrix.

``verify`` is the library's one dense module; every other module of
``wlmg`` is parsed here, and none may call ``toarray``, ``todense`` or
``kron``, nor a dense eigensolver or inverse: ``eigh``, ``eigvalsh``,
``eig``, ``eigvals`` or ``inv``.  The dense matrices live in
``tests/oracles.py``.

Nor does the library read a second form of a matrix it stores one way:
no module of it, ``verify`` included, reads a level's CSR ``combined``
(a level is read as stored, by diagonals) or gives ``StructuredOperator``
a ``to_sparse`` (a structured part is its ``bands``).

Nor does a module other than ``discretize`` build a problem in two calls,
``split(assemble(grid, c), grid, c)``: ``build_problem`` samples the
coefficient once and keeps the stencil's own diagonals.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import wlmg

DENSE_CALLS = ("toarray", "todense", "kron", "eigh", "eigvalsh", "eig", "eigvals", "inv")
LIBRARY = sorted(Path(wlmg.__file__).parent.glob("*.py"))
MODULES = [p for p in LIBRARY if p.name != "verify.py"]


def dense_calls(source: str) -> list:
    """``(line, name)`` of each call of a name in ``DENSE_CALLS``, as a
    function (``kron(...)``) or as an attribute (``A.toarray()``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in DENSE_CALLS:
                found.append((node.lineno, name))
    return sorted(found)


def test_the_check_sees_each_form_of_call():
    source = ("M = A.toarray()\nB = sp.kron(M, M)\n"
              "from numpy import kron\nC = kron(M, M).todense()\n")
    assert dense_calls(source) == [(1, "toarray"), (2, "kron"), (4, "kron"), (4, "todense")]
    source = ("w = np.linalg.eigvalsh(M)\nw, v = la.eigh(M, B)\n"
              "from scipy.linalg import eig, eigvals, inv\n"
              "z = eig(M)[0] + eigvals(M)\nN = inv(M) @ np.linalg.inv(M)\n")
    assert dense_calls(source) == [(1, "eigvalsh"), (2, "eigh"), (4, "eig"), (4, "eigvals"),
                                   (5, "inv"), (5, "inv")]
    assert dense_calls("toarray = 1\nA.toarray\nlev.jacobi_inv\nla.inv\n") == []


def test_every_solver_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"mgm.py", "structured.py", "discretize.py", "transfer.py", "cli.py"} <= names
    assert "verify.py" not in names
    assert {p.name for p in LIBRARY} == names | {"verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_forms_no_dense_matrix(path):
    assert dense_calls(path.read_text(encoding="utf-8")) == []


def second_forms(source: str) -> list:
    """``(line, what)`` of each read of an attribute ``combined`` and each
    ``to_sparse`` given to ``StructuredOperator``: defined in its class
    body or assigned to ``StructuredOperator.to_sparse``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "combined"
                and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, "combined"))
        elif isinstance(node, ast.ClassDef) and node.name == "StructuredOperator":
            for item in node.body:
                targets = item.targets if isinstance(item, ast.Assign) else [item]
                if any(getattr(t, "name", getattr(t, "id", None)) == "to_sparse"
                       for t in targets):
                    found.append((item.lineno, "to_sparse"))
        elif (isinstance(node, ast.Attribute) and node.attr == "to_sparse"
                and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "StructuredOperator"):
            found.append((node.lineno, "to_sparse"))
    return sorted(found)


def test_the_check_sees_each_second_form():
    source = ("A = lev.combined\nB = H.levels[0].combined.nnz\n"
              "class StructuredOperator:\n    def to_sparse(self):\n        pass\n"
              "    to_sparse = bands\n"
              "StructuredOperator.to_sparse = lambda op: op\n")
    assert second_forms(source) == [(1, "combined"), (2, "combined"), (4, "to_sparse"),
                                    (6, "to_sparse"), (7, "to_sparse")]
    source = ("class _Level:\n    @property\n    def combined(self):\n        pass\n"
              "    def to_sparse(self):\n        pass\n"
              "lev.combined = None\nP.to_sparse()\n")
    assert second_forms(source) == []


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_module_reads_each_matrix_in_its_one_form(path):
    assert second_forms(path.read_text(encoding="utf-8")) == []


def two_step_calls(source: str) -> list:
    """``(line, name)`` of each call of ``discretize``'s ``assemble`` or
    ``split``: by the name an import from it binds (``split(A, grid, c)``,
    an alias included) or on the module (``discretize.assemble(...)``, an
    alias of it included).  ``text.split(",")`` is no such call, nor is the
    import itself: the package re-exports both."""
    tree = ast.parse(source)
    functions, modules = {}, {"discretize"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                if (node.module or "").endswith("discretize") and a.name in ("assemble", "split"):
                    functions[a.asname or a.name] = a.name
                elif a.name == "discretize":
                    modules.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names
                        if a.asname and a.name.endswith(".discretize")}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in functions:
                found.append((node.lineno, functions[f.id]))
            elif (isinstance(f, ast.Attribute) and f.attr in ("assemble", "split")
                    and getattr(f.value, "id", None) in modules):
                found.append((node.lineno, f.attr))
    return sorted(found)


def test_the_check_sees_each_two_step_call():
    source = ("from .discretize import GridSpec, assemble, split\n"
              "p = split(assemble(g, c), g, c)\n"
              "A = discretize.assemble(g, c)\nq = discretize.split(A, g, c)\n"
              "from wlmg.discretize import split as s\nfrom . import discretize as d\n"
              "import wlmg.discretize as m\ns(A, g, c)\nd.assemble(g, c)\nm.split(A, g, c)\n")
    assert two_step_calls(source) == [(2, "assemble"), (2, "split"), (3, "assemble"),
                                      (4, "split"), (8, "split"), (9, "assemble"),
                                      (10, "split")]
    source = ("from .discretize import assemble, build_problem\n"
              "ids = text.split(',')\nkey.rsplit('/', 1)\nb = build_problem(g, c)\n"
              "from .other import split\nsplit(x)\n")
    assert two_step_calls(source) == []


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "discretize.py"],
                         ids=lambda p: p.name)
def test_module_builds_its_problem_in_one_call(path):
    """Only ``discretize`` calls ``assemble`` and ``split``; every other
    module builds its problem with ``build_problem``, which samples the
    coefficient once."""
    assert two_step_calls(path.read_text(encoding="utf-8")) == []


def test_the_discretize_module_is_not_shadowed():
    """``wlmg`` exports no name ``discretize``, so the module stays reachable
    both ways (a function of that name would shadow it)."""
    from wlmg import discretize
    module = importlib.import_module("wlmg.discretize")
    assert isinstance(module, types.ModuleType)
    assert discretize is module and wlmg.discretize is module
    assert module.build_problem is wlmg.build_problem
