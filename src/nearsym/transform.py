"""The named voice-leading involutions: relatives, slides, and poles.

Every transformation swaps modality and is its own inverse.  Four kinds:

* relative (R, R*, R**): the one chord of the opposite modality in the same
  arthropod region reached by moving a single voice a whole tone.
* arthropod slide: hold the part named by ``invariant``, slide the named
  dyad a semitone in parallel; lands in the same arthropod region.
* bridge slide: hold the named dyad, slide the remaining n-2 voices a
  semitone in parallel; stays among the chords built over the same root
  cell.
* polar (H, O, Z): the opposite-modality chord in the same bridge region
  sharing no pitch classes.

Each kind has one voice-leading, ``voiceleading.catalog_relation``: relative
P0,1, arthropod slide P2,0, bridge slide P(n-2),0, pole P(n),0.

Slide parts are named by what is held and what moves: an interval class
(1..6) for a dyad, or W / A / F for the three tetrad classes found inside
hexachords (whole-tone tetramirror [0,2,4,6], augmented seventh [0,2,4,8],
French sixth [0,2,6,8]).  ``None`` marks the lone leftover note in triad
slides.  The slide direction is never a parameter: exactly one of up or down
produces a chord of the genus, which the catalog checks demand.  A slide whose
moved part is forced, the one part that complements the held one, is named
by its held part alone (``S6`` for ``S6(5)``).  ``transformation`` reads
every spelling it accepts from the catalog rows, so it takes both.

Each of these moves is defined relative to the symmetric partition, so it
commutes with transposition: the image of a chord is the chord of opposite
modality whose root lies a fixed offset away, up from a (+) chord and down
from a (-) chord.  The catalog is therefore stored as data, 26
transposition-equivariant root offsets, and ``apply`` is arithmetic on
the index of the chord table ``chord.all_chords``; it builds no chord.
``transformation_between`` inverts ``apply`` by scanning the catalog once per
chord pair and memoises the answer; an error is never memoised.
``verify`` re-derives every offset from the definitions above: the
partition-and-shift search for slides, the whole-tone relation for
relatives, and pitch-class disjointness for poles.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cache

from .chord import Chord, Genus, Modality, _rebuilt, _Registered, all_chords
from .errors import ForeignTokenError, GenusMismatchError, InvariantViolationError, TokenParseError

SlidePart = int | str | None

TETRAD_CLASSES: dict[str, tuple[int, ...]] = {
    "W": (0, 2, 4, 6),
    "A": (0, 2, 4, 8),
    "F": (0, 2, 6, 8),
}


class Kind(Enum):
    RELATIVE = "relative"
    ARTHROPOD_SLIDE = "arthropod-slide"
    BRIDGE_SLIDE = "bridge-slide"
    POLAR = "polar"


@dataclass(frozen=True, eq=False)
class Transformation(metaclass=_Registered):
    """One catalog row.  ``Transformation(*fields)`` returns the live object
    registered for its field values, so equality is identity and the hash is
    ``object``'s: ``apply``'s cache hashes its key without a Python call.  A
    copy with any field changed, such as a tampered offset, is another
    object."""

    genus: Genus
    token: str
    kind: Kind
    invariant: SlidePart = None
    moved: SlidePart = None
    offset: int = 0  # image root minus source root, for a (+) source

    __reduce__ = _rebuilt

    def __str__(self) -> str:
        return self.token


# token, kind, held part, moved part, (+) root offset
_ROWS: dict[int, tuple[tuple[str, Kind, SlidePart, SlidePart, int], ...]] = {
    3: (
        ("R", Kind.RELATIVE, None, None, 9),
        ("S", Kind.ARTHROPOD_SLIDE, None, 5, 1),
        ("N", Kind.ARTHROPOD_SLIDE, None, 3, 5),
        ("P", Kind.BRIDGE_SLIDE, 5, None, 0),
        ("L", Kind.BRIDGE_SLIDE, 3, None, 4),
        ("H", Kind.POLAR, None, None, 8),
    ),
    4: (
        ("R*", Kind.RELATIVE, None, None, 4),
        ("S3(4)", Kind.ARTHROPOD_SLIDE, 3, 4, 7),
        ("S3(2)", Kind.ARTHROPOD_SLIDE, 3, 2, 1),
        ("S6", Kind.ARTHROPOD_SLIDE, 6, 5, 10),
        ("S2", Kind.BRIDGE_SLIDE, 2, 3, 0),
        ("S4", Kind.BRIDGE_SLIDE, 4, 3, 6),
        ("S5", Kind.BRIDGE_SLIDE, 5, 6, 9),
        ("O", Kind.POLAR, None, None, 3),
    ),
    6: (
        ("R**", Kind.RELATIVE, None, None, 3),
        ("SA(3)", Kind.ARTHROPOD_SLIDE, "A", 3, 11),
        ("SA(5)", Kind.ARTHROPOD_SLIDE, "A", 5, 7),
        ("SF", Kind.ARTHROPOD_SLIDE, "F", 5, 9),
        ("SW(1)", Kind.ARTHROPOD_SLIDE, "W", 1, 1),
        ("SW(3)", Kind.ARTHROPOD_SLIDE, "W", 3, 5),
        ("S1", Kind.BRIDGE_SLIDE, 1, "W", 0),
        ("S3(A)", Kind.BRIDGE_SLIDE, 3, "A", 10),
        ("S3(W)", Kind.BRIDGE_SLIDE, 3, "W", 4),
        ("S5(A)", Kind.BRIDGE_SLIDE, 5, "A", 6),
        ("S5(F)", Kind.BRIDGE_SLIDE, 5, "F", 8),
        ("Z", Kind.POLAR, None, None, 2),
    ),
}


@cache
def catalog(g: Genus) -> tuple[Transformation, ...]:
    """The closed transformation list for a genus: relative, arthropod
    slides, bridge slides, pole; ``region.polar`` reads the pole last."""
    return tuple(Transformation(g, *row) for row in _ROWS[g.n])


@cache
def _spellings() -> dict[str, tuple[int, int]]:
    """Each accepted flat, upper-case token spelling: its genus n and row
    index.  A slide named by its held part alone, ``S{held}``, moves the one
    part that complements it, and is also spelled in full: ``S6(5)``."""
    table = {}
    for n, rows in _ROWS.items():
        for index, (token, _, held, moved, _) in enumerate(rows):
            full = f"{token}({moved})" if token == f"S{held}" else token
            table[token] = table[full] = (n, index)
    return table


def transformation(token: str, g: Genus) -> Transformation:
    """Look up a catalog member by token.

    The accepted spellings come from the catalog rows: the flat ASCII token
    (``S3(4)``) in any case, the superscript spelling (``S^{3(4)}``), and the
    full spelling of a slide whose moved part is forced (``S6(5)`` for
    ``S6``).  A ``^``, ``{`` or ``}`` anywhere else raises
    ``TokenParseError``, and a token of another genus raises
    ``ForeignTokenError``.
    """
    cleaned = token.strip().upper()
    # the superscript spelling wraps all that follows the S: S^{3(4)}
    if cleaned.startswith("S^{") and cleaned.endswith("}") and len(cleaned) > 4:
        cleaned = "S" + cleaned[3:-1]
    if any(ch in cleaned for ch in "^{}"):
        raise TokenParseError(f"malformed superscript token: {token!r}")
    found = _spellings().get(cleaned)
    if found is None:
        raise TokenParseError(f"unknown transformation token: {token!r}")
    n, index = found
    if n != g.n:
        raise ForeignTokenError(
            f"transformation {_ROWS[n][index][0]!r} belongs to the n={n} genus, not n={g.n}"
        )
    return catalog(g)[index]


@cache
def apply(t: Transformation, c: Chord) -> Chord:
    """Transform c by the named involution: move the root by the token's
    offset, up from a (+) chord and down from a (-) chord, and swap modality."""
    if t.genus is not c.genus:
        raise GenusMismatchError(f"cannot apply {t.token} (n={t.genus.n}) to {c} (n={c.genus.n})")
    plus = c.modality is Modality.PLUS
    root = c.root + t.offset if plus else c.root - t.offset
    return all_chords(c.genus)[2 * (root % 12) + plus]


@cache
def transformation_between(x: Chord, y: Chord) -> Transformation | None:
    """The unique catalog transformation sending x to y, if any exists.

    Memoised per chord pair: a miss scans the catalog, one ``apply`` per
    token, and a hit is one dict lookup.  An error is raised, not cached,
    so it raises again on every call."""
    if x.genus is not y.genus:
        raise GenusMismatchError(f"cannot compare {x} (n={x.genus.n}) with {y} (n={y.genus.n})")
    hits = [t for t in catalog(x.genus) if apply(t, x) is y]  # one object per chord
    if len(hits) > 1:
        raise InvariantViolationError(
            f"{len(hits)} transformations connect {x} to {y}: {[t.token for t in hits]}"
        )
    return hits[0] if hits else None


def apply_sequence(c: Chord, transformations: Iterable[Transformation]) -> Chord:
    """Left-to-right composition of apply()."""
    for t in transformations:
        c = apply(t, c)
    return c
