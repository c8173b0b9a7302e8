#!/usr/bin/env python3
"""Count the code lines of the Python modules in a directory.

A code line holds at least one token of code.  Blank lines, comment-only
lines and the lines of docstrings (the string that opens a module, class
or function body) do not count, so rewording prose leaves the count
alone, while every line of an expression that spans several lines does
count.

Usage:
  python3 scripts/code_lines.py src/multifair

prints one ``<code lines>  <module>`` line per module, sorted by path, and
a last ``<code lines>  total`` line.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that carry no code: layout, comments and the file's frame
_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """First lines of the docstrings in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add(body[0].lineno)
    return starts


def code_lines(source: str) -> int:
    """Number of code lines in the Python source text ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NON_CODE:
            continue
        if token.type == tokenize.STRING and token.start[0] in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[0]).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
