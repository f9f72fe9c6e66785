"""Replay the golden CLI invocations (tests/golden/cli.json, written by
tests/golden_cli.py) and demand the same exit code and stdout digest.  The
invocation list is built by a fixture, not at import: it reads the bridge
regions, and a library that cannot build them should fail these tests by
name rather than stop their collection."""

import json

import pytest

from golden_cli import GOLDEN, invocations, key, run

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
