"""Replay the golden CLI invocations (tests/golden/cli.json, written by
tests/golden_cli.py) and demand the same exit code and stdout digest.  The
invocation list is built by a fixture, not at import: it reads the bridge
regions, and a library that cannot build them should fail these tests by
name rather than stop their collection."""

import json

import pytest

from golden_cli import GOLDEN, invocations, key, run
from nearsym import region

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))
COMMANDS = ("partitions", "apply", "relate", "region", "cycles", "export", "verify")


@pytest.fixture(scope="module")
def all_invocations():
    return invocations()


def test_golden_covers_every_invocation(all_invocations):
    assert sorted(RECORDED) == sorted(key(argv) for argv in all_invocations)
    assert {argv[0] for argv in all_invocations} == set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(all_invocations, command):
    mismatched = [
        key(argv)
        for argv in all_invocations
        if argv[0] == command and run(argv) != RECORDED[key(argv)]
    ]
    assert mismatched == []


def test_export_replayed_warm_matches_golden(all_invocations):
    # A cold pass from an empty export memo, then a warm pass in reverse
    # order: a memo keyed without the spelling or the format serves one
    # invocation's text to another in one pass or the other.
    exports = [argv for argv in all_invocations if argv[0] == "export"]
    region._export.cache_clear()
    for order in (exports, exports[::-1]):
        assert [key(argv) for argv in order if run(argv) != RECORDED[key(argv)]] == []
    assert region._export.cache_info().hits > 0
