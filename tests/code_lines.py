"""Count the code lines of each module of the nearsym package.

A code line is a line that is not blank, not a comment alone, and not part
of a module, class or function docstring.  It prints one line per module,
largest first, then the total.  Standard library only:

    python tests/code_lines.py              # the package in this checkout
    python tests/code_lines.py DIRECTORY    # the modules of another copy
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nearsym"

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:6,} {name}")
    print(f"{sum(counts.values()):6,} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
