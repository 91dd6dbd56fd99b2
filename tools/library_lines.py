"""Count the library's code lines: those of ``src/bstoa/*.py`` that hold
code, leaving out blank lines, comments and docstrings.

Usage, from the root of a checkout (or with the root as the argument):

    python3 tools/library_lines.py [ROOT]

A line counts when a token other than a comment or a line break starts or
runs over it, and no docstring (the string that opens a module, class or
function body, found with ``ast``) covers it.  So a statement written over
three lines counts three.  Prints the total, then the count per module,
largest first.  Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, as the module docstring
    defines them."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    counts = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted((root / "src" / "bstoa").glob("*.py"))
    }
    print(f"library code lines: {sum(counts.values())}")
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {name:<16} {count:5d}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has all it wanted.  Point stdout at devnull so the
        # interpreter's last flush of the unsent output finds no pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = 0
    sys.exit(status)
