"""Code lines per module of the library: lines that hold code, counting no
docstrings, comments or blank lines.

Run from anywhere, with the standard library only:

    python tests/code_lines.py         # this tree
    python tests/code_lines.py PATH    # the tree at PATH, e.g. another checkout

A line counts when a token other than a comment or a line break lies on
it; a token over several lines, such as a long string, counts every line
it spans.  The lines of module, class and function docstrings (a string
that is the first statement of its body) do not count.  It prints one
line per module of ``src/raagmcg/`` and the total.  It is a report, not a
gate: it always exits 0.

The file name has no ``test_`` prefix, so tier-1 does not collect it.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines = set()
    for token in tokens:
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else ROOT
    total = 0
    for path in sorted((root / "src" / "raagmcg").glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
