#!/usr/bin/env python3
"""Count the code lines of Python files and print per-file counts and the total.

A line counts when it holds a token other than a comment, a newline or an
indent (``tokenize``), and lies outside every module, class and function
docstring (spans found with ``ast``).  A token that spans several lines, such
as a multi-line string, counts on each of them.  Blank lines, comment lines
and docstrings therefore count nothing, and no line is counted twice.

    python scripts/count_code_lines.py              # src/simplex_limits
    python scripts/count_code_lines.py tests scripts
"""

import argparse
import ast
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and
    its functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """Number of code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    excluded = docstring_lines(ast.parse(source, filename=str(path)))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - excluded)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/simplex_limits"],
                        help="Python files or directories (default: src/simplex_limits)")
    args = parser.parse_args(argv)
    files = []
    for name in args.paths:
        path = pathlib.Path(name)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
