"""Replay the golden library digests (tests/golden/library.json, written by
tests/golden_library.py) and demand the same result over every domain."""

import json

import pytest

from golden_library import GOLDEN, TABLES, digest

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_function():
    assert sorted(RECORDED) == sorted(TABLES)


@pytest.mark.parametrize("name", TABLES)
def test_library_matches_golden(name):
    assert digest(name) == RECORDED[name]
