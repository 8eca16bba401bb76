"""The solver forms no dense matrix.

``verify`` is the library's one dense module; every other module of
``wlmg`` is parsed here, and none may call ``toarray``, ``todense`` or
``kron``, nor a dense eigensolver or inverse: ``eigh``, ``eigvalsh``,
``eig``, ``eigvals`` or ``inv``.  The dense matrices live in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

import pytest

import wlmg

DENSE_CALLS = ("toarray", "todense", "kron", "eigh", "eigvalsh", "eig", "eigvals", "inv")
MODULES = sorted(p for p in Path(wlmg.__file__).parent.glob("*.py") if p.name != "verify.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_forms_no_dense_matrix(path):
    assert dense_calls(path.read_text(encoding="utf-8")) == []
