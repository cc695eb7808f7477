"""Print the code lines of each ``src/biharwave`` module and their total.

A code line is a physical line that holds at least one Python token other
than a comment and is not part of a docstring (the leading string of a
module, class or function body).  Blank lines, comment lines and docstrings
do not count; a line that mixes code with a trailing comment does.  Tokens
come from ``tokenize``, docstrings from ``ast``.  Usage, from any directory:

    python scripts/code_lines.py                  # this checkout
    python scripts/code_lines.py --root OTHER     # another checkout's src/biharwave
    python scripts/code_lines.py --base OTHER     # OTHER's counts, this checkout's and the difference

With --base, each row reads ``<base> <here> <difference> <module>``, a module
missing from one checkout counting 0 lines there, and the totals come last.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def module_counts(root: Path) -> dict[str, int]:
    """Code lines of each module of root's src/biharwave, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((root / "src" / "biharwave").glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout holding src/biharwave (default: this one)")
    parser.add_argument("--base", type=Path, default=None,
                        help="another checkout: print its counts, the root's and the difference")
    args = parser.parse_args(argv)
    here = module_counts(args.root)
    if args.base is None:
        for name, count in here.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(here.values()):6d}  total")
        return 0
    base = module_counts(args.base)
    print(f"{'base':>6}  {'here':>6}  {'diff':>6}  module")
    rows = [(name, base.get(name, 0), here.get(name, 0)) for name in sorted(base.keys() | here.keys())]
    for name, old, new in rows + [("total", sum(base.values()), sum(here.values()))]:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
