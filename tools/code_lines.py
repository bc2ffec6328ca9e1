"""Count the code lines of the photonstat library.

Usage: python3 tools/code_lines.py CHECKOUT

Prints the number of lines under ``CHECKOUT/src/photonstat/`` that hold
code: lines that are blank, hold only a comment, or belong to a docstring
(the string that opens a module, class or function body) do not count.
A line counts once however many statements it holds, and a string that
spans lines counts on each of them.  Standard library only; not part of
the test suite.
"""

from __future__ import annotations

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
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    package = Path(sys.argv[1]).resolve() / "src" / "photonstat"
    print(sum(code_lines(path.read_text()) for path in sorted(package.glob("*.py"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
