"""Replay the golden CLI invocations (tests/golden/cli.json, written by
tests/golden_cli.py) and demand the same exit code and stdout digest."""

import json

import pytest

from golden_cli import GOLDEN, invocations, key, run

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))
INVOCATIONS = invocations()
COMMANDS = ("partitions", "apply", "relate", "region", "cycles", "export", "verify")


def test_golden_covers_every_invocation():
    assert sorted(RECORDED) == sorted(key(argv) for argv in INVOCATIONS)
    assert {argv[0] for argv in INVOCATIONS} == set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command):
    mismatched = [
        key(argv)
        for argv in INVOCATIONS
        if argv[0] == command and run(argv) != RECORDED[key(argv)]
    ]
    assert mismatched == []
