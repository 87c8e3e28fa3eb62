#!/usr/bin/env python3
"""Count the code lines of each module of src/hideseek, and their total.

A code line is a non-blank line that is neither a comment nor part of a
docstring.  Docstrings are found with ast: the first statement of a
module, class or function when it is a string constant.  Comment lines
are the lines whose first non-blank character is '#'.

    python3 benchmarks/count_lines.py [package dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hideseek"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and i not in skip)


def main(argv: list[str]) -> None:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
