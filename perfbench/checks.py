"""Output checks.  Each returns True when an output is right; a False counts
the operation as failed.

The checks do not call the code under test: CLI and library outputs are
compared with digests recorded from the seed commit (``golden/``), cycle
output with the pinned dodecatonic histogram, and ``verify`` output with its
pinned check count.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

from inputs import DODECATONIC_HISTOGRAM, cli_key

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
VERIFY_CHECKS = 75


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_cli(golden: dict, argv: list[str], returncode: int, stdout: bytes) -> bool:
    """Exit code and stdout digest equal those recorded for this invocation."""
    expected = golden.get(cli_key(argv))
    return expected is not None and expected == [returncode, digest(stdout)]


def check_cycles(window: tuple[int, int], returncode: int, out: str, fmt: str) -> bool:
    """Cycle lengths emitted equal the pinned histogram over the window."""
    lo, hi = window
    expected = {k: v for k, v in DODECATONIC_HISTOGRAM.items() if lo <= k <= hi}
    if returncode != 0:
        return False
    if fmt == "json":
        lengths = Counter(int(m) for m in re.findall(r'^      "length": (\d+),$', out, re.M))
        count = re.search(r'^  "count": (\d+)\n}\n\Z', out, re.M)
        total = int(count.group(1)) if count else -1
    else:
        lines = out.splitlines()
        if not lines or not lines[-1].startswith("total: "):
            return False
        cycles = lines[:-1]
        if len(set(cycles)) != len(cycles):
            return False
        lengths = Counter(len(line.split(" | ", 1)[0].split()) for line in cycles)
        total = int(lines[-1][len("total: "):])
    return dict(lengths) == expected and total == sum(expected.values())


def check_verify(returncode: int, out: str, fmt: str) -> bool:
    """A verdict of VERIFY_CHECKS passed checks and none failed."""
    if returncode != 0:
        return False
    if fmt == "json":
        try:
            report = json.loads(out)
        except ValueError:
            return False
        return (report.get("total") == VERIFY_CHECKS and report.get("failed") == 0
                and report.get("passed") is True
                and len(report.get("checks", ())) == VERIFY_CHECKS
                and all(c.get("passed") is True for c in report["checks"]))
    lines = out.splitlines()
    return (len(lines) == VERIFY_CHECKS + 1
            and all(line.startswith("PASS ") for line in lines[:-1])
            and lines[-1] == f"{VERIFY_CHECKS} checks, {VERIFY_CHECKS} passed, 0 failed")


def canon(value):
    """A JSON-able form of a library result that depends only on its meaning,
    not on class reprs."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [canon(v) for v in value]
    kind = type(value).__name__
    if kind == "Chord":
        return f"{value.name()}/{value.genus.n}"
    if kind == "Transformation":
        return value.token
    if kind == "Region":
        return [value.kind.value, value.genus.n, value.id, canon(value.members)]
    raise TypeError(f"no canonical form for {kind}")


def library_digest(value) -> str:
    return digest(json.dumps(canon(value)))
