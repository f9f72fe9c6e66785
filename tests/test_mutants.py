import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


def _test_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_edits_its_file_once_and_names_tests_that_exist(mutant):
    # the runner replaces the old text in a copy of the tree, so it must be
    # there, once, and the tests it names must be there to run
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        file, _, name = test.partition("::")
        function, _, case = name.partition("[")
        assert function in _test_functions(ROOT / file), test
        # a parametrized case is named by an id that its file spells out
        assert not case or f'"{case[:-1]}"' in (ROOT / file).read_text(encoding="utf-8"), test
