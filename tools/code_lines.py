"""Count the code lines of Python files: no docstrings, comments or blank lines.

Usage::

    python3 tools/code_lines.py FILE [FILE ...]

Prints each file's count, then their total. A line counts if it holds a
token other than a comment, a line break or an indentation change, and
the token is not part of a docstring (the first statement of a module,
class or function, if it is a string). A string that spans lines counts
on each line it spans, unless it is a docstring. ``wc -l`` counts every
line, so deleting a docstring or a comment shrinks it but leaves this
count as it was.
"""

import argparse
import ast
import io
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and all(line in docstrings for line in span):
            continue
        lines.update(span)
    return len(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    total = 0
    for path in args.files:
        with tokenize.open(path) as f:
            n = code_lines(f.read())
        total += n
        print(f"{n:7d} {path}")
    print(f"{total:7d} total")


if __name__ == "__main__":
    main()
