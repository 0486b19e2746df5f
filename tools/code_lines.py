#!/usr/bin/env python3
"""Count the lines and the code lines of Python files.

    python3 tools/code_lines.py                 # src/samo/*.py
    python3 tools/code_lines.py FILE [FILE ...]

A code line holds a `tokenize` token other than a comment; a line inside a
docstring (the string that opens a module, class or function body, with
its line range taken from `ast`) is never a code line. Prints one line per
file and a total.
"""

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens that hold no code: comments and the layout tokenize adds
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(lines, code lines) of one Python file."""
    source = path.read_bytes()
    skip = docstring_lines(ast.parse(source))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count(b"\n"), len(code - skip)


def main(argv: list) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "samo").glob("*.py"))
    total_lines = total_code = 0
    for path in paths:
        lines, code = count(path)
        total_lines += lines
        total_code += code
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        print(f"{lines:6,d} {code:6,d}  {shown}")
    print(f"{total_lines:6,d} {total_code:6,d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
