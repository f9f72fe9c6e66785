"""Record the output digests the checks compare against.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose outputs are known to be right; it
rewrites ``golden/cli.json`` (exit code and stdout digest of every cli-cold
pool invocation, each run as ``python -m nearsym``) and
``golden/library.json`` (result digest of every library-warm pool call).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from run import Child, nearsym_cmd  # noqa: E402
from worker import library_calls  # noqa: E402


def record_cli() -> dict:
    golden = {}
    for argv in (a for kind in inputs.cli_pool().values() for a in kind):
        child = Child(nearsym_cmd(argv))
        golden[inputs.cli_key(argv)] = [child.returncode, checks.digest(child.stdout)]
    print("cli exit codes:", dict(Counter(code for code, _ in golden.values())))
    return golden


def record_library() -> dict:
    import nearsym as ns

    specs = [spec for ops in inputs.library_pool().values() for spec in ops]
    golden = {}
    for spec, (fn, args) in zip(specs, library_calls(ns, specs)):
        golden[inputs.library_key(spec)] = checks.library_digest(fn(*args))
    print("library calls:", len(golden))
    return golden


def write(name: str, golden: dict) -> None:
    with open(checks.GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    write("library", record_library())
    write("cli", record_cli())
