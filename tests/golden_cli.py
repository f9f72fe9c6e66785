"""Golden CLI outputs: the exit code and stdout digest of a fixed set of
``nearsym`` invocations, recorded once from a known-good checkout and
replayed by ``test_golden_cli.py``.

    PYTHONPATH=src python tests/golden_cli.py

rewrites ``tests/golden/cli.json``.  Each invocation runs in-process through
``nearsym.cli.main``; an argparse usage error counts as exit code 2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from nearsym.chord import genus
from nearsym.cli import main
from nearsym.region import bridge_regions

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

FORMATS = (["--format", "text"], ["--format", "json"])
ACCIDENTALS = (["--accidentals", "sharps"], ["--accidentals", "flats"])
# The full range (no bounds) for every genus, plus the benchmark's
# dodecatonic windows wherever they fit in the genus's 2n chords.
WINDOWS = ([], ["--min-len", "4", "--max-len", "5"], ["--min-len", "6", "--max-len", "7"],
           ["--min-len", "4", "--max-len", "9"], ["--min-len", "12", "--max-len", "12"])
SEQUENCES = {3: "R,S,N,H,P,L", 4: "R*,S3(4),O,S6,S2", 6: "SA(3),Z,R**,S1,SW(1)"}


def invocations() -> list[list[str]]:
    """Every recorded argv, in a fixed order."""
    styles = [fmt + acc for fmt in FORMATS for acc in ACCIDENTALS]
    out: list[list[str]] = []
    for n in (3, 4, 6):
        g = ["--genus", str(n)]
        windows = [w for w in WINDOWS if not w or int(w[-1]) <= 2 * n]
        # One chord from each bridge region, the first in sort order.
        chords = [min(r.members, key=lambda c: c.sort_key).name() for r in bridge_regions(genus(n))]
        out.append(["partitions", "--n", str(n)] + FORMATS[1])
        out.append(["partitions", "--n", str(n), "--accidentals", "flats"])
        for style in styles:
            out.append(["apply"] + g + ["--chord", chords[-1], "--seq", SEQUENCES[n], "--trace"] + style)
            out.append(["relate"] + g + [chords[0], chords[-1]] + style)
            for kind in ("arthropod", "bridge"):
                out.append(["region"] + g + ["--kind", kind] + style)
            out.append(["region"] + g + ["--kind", "bridge", "--containing", chords[-1]] + style)
            for chord in chords:
                out.extend(["cycles"] + g + ["--containing", chord] + w + style for w in windows)
        for fmt in ("dot", "json"):
            for acc in ACCIDENTALS:
                for kind in ("arthropod", "bridge"):
                    out.extend(
                        ["export"] + g + ["--kind", kind, "--containing", chord, "--format", fmt] + acc
                        for chord in chords
                    )
    out.append(["verify"])
    out.append(["verify", "--format", "json"])
    for n in (3, 4, 6):
        out.extend(["verify", "--genus", str(n)] + fmt for fmt in FORMATS)
    return out


def key(argv: list[str]) -> str:
    return " ".join(argv)


def run(argv: list[str]) -> list:
    """[exit code, sha256 of stdout] of one in-process CLI run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()]


if __name__ == "__main__":
    golden = {key(argv): run(argv) for argv in invocations()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(golden)} invocations -> {GOLDEN}")
