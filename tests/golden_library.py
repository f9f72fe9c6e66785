"""Golden library results: one digest per public function over its whole
domain, recorded once from a known-good checkout and replayed by
``test_golden_library.py``.

    PYTHONPATH=src python tests/golden_library.py

rewrites ``tests/golden/library.json``.  The domains are every chord of
n = 3, 4, 6 (72), every chord x catalog token, every same-genus pair of
chords (1,728) and both region kinds.  Each result is written out as text
whose form does not depend on set iteration order, and the text is hashed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from nearsym.chord import all_chords, genus, parent_symmetric_cell
from nearsym.region import RegionKind, polar, region_of, region_to_dict
from nearsym.transform import apply, catalog, transformation_between
from nearsym.voiceleading import vl_relation

GOLDEN = Path(__file__).resolve().parent / "golden" / "library.json"

GENERA = [genus(n) for n in (3, 4, 6)]


def _chords():
    return [c for g in GENERA for c in all_chords(g)]


def _pairs():
    return [(x, y) for g in GENERA for x in all_chords(g) for y in all_chords(g)]


def _region_of():
    for c in _chords():
        for kind in RegionKind:
            yield f"{c!r} {kind.value} " + json.dumps(region_to_dict(region_of(c, kind)))


def _parent_symmetric_cell():
    for c in _chords():
        cell, note, direction = parent_symmetric_cell(c)
        yield f"{c!r} {sorted(cell)} {note} {direction.value}"


def _polar():
    for c in _chords():
        yield f"{c!r} {polar(c)!r}"


def _apply():
    for c in _chords():
        for t in catalog(c.genus):
            yield f"{c!r} {t.token} {apply(t, c)!r}"


def _vl_relation():
    for x, y in _pairs():
        yield f"{x!r} {y!r} {vl_relation(x, y)!r}"


def _transformation_between():
    for x, y in _pairs():
        t = transformation_between(x, y)
        yield f"{x!r} {y!r} {t.token if t else None}"


TABLES = {
    "region_of": _region_of,
    "parent_symmetric_cell": _parent_symmetric_cell,
    "polar": _polar,
    "apply": _apply,
    "vl_relation": _vl_relation,
    "transformation_between": _transformation_between,
}


def digest(name: str) -> list:
    """[line count, sha256 of the lines] of one function over its domain."""
    lines = list(TABLES[name]())
    return [len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()]


if __name__ == "__main__":
    golden = {name: digest(name) for name in TABLES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(golden)} digests -> {GOLDEN}")
