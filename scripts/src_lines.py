#!/usr/bin/env python3
"""Print the lines and code lines of each Python module under a directory.

    python3 scripts/src_lines.py src/usvclust
    python3 scripts/src_lines.py ../parent/src/usvclust src/usvclust

A code line is a physical line that holds part of a statement: blank
lines, comment-only lines and the lines of docstrings do not count. A
docstring is a string literal that is the first statement of a module,
class or function body. A line inside any other string literal counts.
One line per module gives its name, lines and code lines, sorted by name,
and a last line gives the totals; each directory is printed in turn.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

# tokens that hold no part of a statement
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The lines of ``source`` and its code lines."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dirs", nargs="+", type=Path, help="directories of .py modules")
    args = ap.parse_args()
    for directory in args.dirs:
        print(directory)
        totals = [0, 0]
        for path in sorted(directory.glob("*.py")):
            lines, code = count(path.read_text(encoding="utf-8"))
            totals[0] += lines
            totals[1] += code
            print(f"  {path.stem:<16} {lines:>6} {code:>6}")
        print(f"  {'total':<16} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
