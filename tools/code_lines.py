"""Count the code lines of Python modules: lines holding a token outside docstrings and comments.

A line counts when it holds any token other than a comment, a line break,
an indent or a dedent, or a string that is a module, class or function
docstring. Blank lines, comment lines and docstring lines do not count.

Usage: python tools/code_lines.py [PATH ...]   (default: src)

Each PATH is a .py file or a directory searched for .py files. Prints
one line per module, its code lines and its path, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of a module and of its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of lines of one Python file that hold a code token."""
    source = Path(path).read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source, filename=str(path)))
    lines = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in skip):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths):
    """The .py files named by paths, directories searched recursively, in sorted order."""
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    total = 0
    for path in modules(paths):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return total


if __name__ == "__main__":
    main()
