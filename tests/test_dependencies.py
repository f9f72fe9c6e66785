"""The package depends on nothing but itself and the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nearsym"


def test_the_package_imports_only_itself_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level 0: absolute
                names = [node.module]
            else:
                continue
            top = [name.partition(".")[0] for name in names]
            outside += [f"{path.name}: {name}" for name in top if name not in sys.stdlib_module_names]
    assert outside == []
