"""Count the lines of Python source that hold code.

Usage (from the root of a checkout):

    python3 tools/loc.py src/specprecode
    python3 tools/loc.py src/specprecode/runner.py tools

A line counts when at least one token on it is code: blank lines, comment
lines and the lines of docstrings do not count.  A docstring is a string
literal that forms the first statement of a module, class or function.
Directories are searched for ``*.py`` files.  The script prints one line
per file, ``<code lines>  <physical lines>  <path>``, then the totals.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(text):
    """(code lines, physical lines) of Python source text."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _NOT_CODE or tok.start[0] in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), len(text.splitlines())


def python_files(paths):
    """The ``*.py`` files named by or under the given paths, sorted per path."""
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    args = parser.parse_args(argv)
    total_code = total_lines = 0
    for path in python_files(args.paths):
        code, lines = count_source(path.read_text(encoding="utf-8"))
        total_code += code
        total_lines += lines
        print(f"{code:6d}  {lines:6d}  {path}")
    print(f"{total_code:6d}  {total_lines:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
