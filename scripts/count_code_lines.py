"""Code lines of the library: lines of ``src/wlmg/*.py`` that are not blank,
not ``#`` comments and not docstrings (of a module, class or function).

    python3 scripts/count_code_lines.py [checkout]

prints the total for ``checkout`` (default: this one) and, to stderr, each
module's count.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and i not in docstrings)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    total = 0
    for path in sorted(root.glob("src/wlmg/*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        print(f"{count:6d} {path.name}", file=sys.stderr)
        total += count
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
