"""Nearly symmetric chords: genus templates, naming, and perturbation.

A chord here is one single-semitone displacement away from a symmetric
partition cell.  Displacing a cell note downward produces the (+) species of
its genus, displacing upward the (-) species:

    n=3:  augmented triad      -> major triad (+)        / minor triad (-)
    n=4:  diminished seventh   -> dominant seventh (+)   / half-diminished (-)
    n=6:  whole-tone scale     -> Wozzeck chord (+)      / mystic chord (-)

The parent cell is arithmetic: perturbation commutes with transposition, so
the displaced note lies one fixed offset per genus and modality above the root.
Its oracle is ``verify``'s ``perturbation-roundtrip``, both ways against
``perturb``, which names each chord through the pitch-class table.

Every ``Genus``, ``Chord`` and ``Transformation`` has one live object per
value.  Their metaclass, ``_Registered``, builds each instance through the
dataclass's own ``__init__`` and returns the object that ``_REGISTRY`` holds
for its class and field values, read with ``dataclasses.fields``, so no class
restates its fields and equality is identity.  The registry holds its objects
weakly: one that nobody else holds is freed, and the next call for its value
builds it afresh.  A miss inserts through ``setdefault`` under one lock, so
threads that first meet a value together get one object.  ``all_chords`` is
a cached table of registered chords, so clearing or rebuilding it changes the
identity of no chord that is held.

Chord text names the same table index in every genus, so ``parse_chord``
memoises text to index in a bounded ``lru_cache`` and reads the genus's
table at that index: a repeated text costs one str hash.  The memo holds
ints, never chords, and a text that raises is parsed afresh each time.
"""

from __future__ import annotations

import inspect
import operator
import threading
import weakref
from collections.abc import Iterable
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, lru_cache
from typing import Any, NamedTuple

from .errors import (
    ChordParseError,
    NotAMemberError,
    UnsupportedCardinalityError,
)
from .pcset import PcSet, pcset
from .symmetry import is_symmetric_cell

NOTE_NAMES_SHARP = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
NOTE_NAMES_FLAT = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")

_NATURALS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


class Modality(Enum):
    """Which way the parent cell was displaced: (+) downward, (-) upward."""

    PLUS = "+"
    MINUS = "-"

    def __str__(self) -> str:
        return self.value


class Direction(Enum):
    DOWN = "down"
    UP = "up"


# Every live Genus, Chord and Transformation, keyed by its class and field
# values.  An entry goes when its object does.  WeakValueDictionary.setdefault
# is no one atomic step, so every insert holds _LOCK.
_REGISTRY: weakref.WeakValueDictionary[tuple, object] = weakref.WeakValueDictionary()
_LOCK = threading.Lock()


class _Registered(type):
    """The metaclass of the registered dataclasses.  A call builds the
    instance through the dataclass's own ``__init__`` and returns the live
    object registered for its class and field values: the new one on a
    miss."""

    def __call__(cls, *args: Any, **kwargs: Any) -> Any:
        obj = super().__call__(*args, **kwargs)
        key = (cls, *(getattr(obj, f.name) for f in fields(cls)))
        with _LOCK:
            return _REGISTRY.setdefault(key, obj)

    @property
    def __signature__(cls) -> inspect.Signature:
        """The dataclass's own signature, which ``__call__`` would hide from
        ``inspect`` and ``help``: its ``__init__``'s without self, returning
        an instance of cls."""
        sig = inspect.signature(cls.__init__)
        params = list(sig.parameters.values())[1:]
        return sig.replace(parameters=params, return_annotation=cls.__name__)


def _rebuilt(obj: object) -> tuple:
    """A ``__reduce__``: pickle and ``copy`` rebuild obj from its field
    values, which gives back the registered object."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj))


@dataclass(frozen=True, eq=False)
class Genus(metaclass=_Registered):
    """One species column: cardinality plus both templates (intervals above
    the root).

    ``Genus(*fields)`` returns the live object registered for its field
    values, so pickle, ``copy`` and ``dataclasses.replace`` give back
    ``TRIADS``, ``TETRADS`` or ``HEXACHORDS``: equality is identity and the
    hash is ``object``'s.  The caches keyed by a genus (``all_chords``,
    ``catalog``, the region lists) hash it without a Python call.  A copy
    with any field changed is another object."""

    n: int
    plus_name: str
    minus_name: str
    plus_template: tuple[int, ...]
    minus_template: tuple[int, ...]

    __reduce__ = _rebuilt

    def template(self, modality: Modality) -> tuple[int, ...]:
        return self.plus_template if modality is Modality.PLUS else self.minus_template

    def __repr__(self) -> str:
        return f"Genus(n={self.n})"


TRIADS = Genus(3, "major triad", "minor triad", (0, 4, 7), (0, 3, 7))
TETRADS = Genus(
    4, "dominant seventh", "half-diminished seventh", (0, 4, 7, 10), (0, 3, 6, 10)
)
# For hexachords the minor second sits at template positions 0 and 1, so the
# root is the lower note of the chord's unique semitone pair.
HEXACHORDS = Genus(6, "Wozzeck chord", "mystic chord", (0, 1, 4, 6, 8, 10), (0, 1, 3, 5, 7, 9))

GENERA: dict[int, Genus] = {3: TRIADS, 4: TETRADS, 6: HEXACHORDS}


def genus(n: int) -> Genus:
    """The genus of cardinality n (3, 4, or 6)."""
    try:
        return GENERA[n]
    except KeyError:
        raise UnsupportedCardinalityError(
            f"no genus of cardinality {n}; expected 3, 4, or 6"
        ) from None


@dataclass(frozen=True, eq=False)
class Chord(metaclass=_Registered):
    """A concrete chord, identified by (genus, root, modality).

    ``Chord(g, root, m)`` reduces the root mod 12 and returns the live object
    registered for (g, root, m), so there is one object per chord that is
    held: equality is identity and the hash is ``object``'s, and dict and
    cache lookups call no Python method.  Each chord also holds its
    pitch-class set, derived from the genus template when it is built.
    """

    genus: Genus
    root: int
    modality: Modality

    def __post_init__(self) -> None:
        genus, modality = self.genus, self.modality
        if not isinstance(genus, Genus) or not isinstance(modality, Modality):
            raise TypeError(f"Chord needs a Genus and a Modality, not {genus!r} and {modality!r}")
        root = operator.index(self.root) % 12
        # frozen, so set as the dataclass's own __init__ sets its fields
        object.__setattr__(self, "root", root)
        pcs = frozenset((root + i) % 12 for i in genus.template(modality))
        object.__setattr__(self, "_pitch_classes", pcs)

    __reduce__ = _rebuilt

    def pitch_classes(self) -> PcSet:
        """The chord's pitch classes, stored when it was built."""
        return self._pitch_classes

    @property
    def sort_key(self) -> tuple[int, str]:
        return (self.root, self.modality.value)

    def name(self, flats: bool = False) -> str:
        names = NOTE_NAMES_FLAT if flats else NOTE_NAMES_SHARP
        return names[self.root] + self.modality.value

    def __str__(self) -> str:
        return self.name()

    def __repr__(self) -> str:
        return f"Chord({self.name()!r}, n={self.genus.n})"


class Perturbation(NamedTuple):
    """A cell, the note displaced, and the direction it moved."""

    cell: PcSet
    note: int
    direction: Direction


def parse_note(text: str) -> int:
    """Parse a note name (letter plus optional accidentals) to a pitch class."""
    return _pitch_class(text, text)


def _pitch_class(note: str, text: str) -> int:
    """The pitch class of note text.  An error quotes ``text``, all that the
    caller gave: for a chord, the whole chord text, not just its note part."""
    s = note.strip().replace("♯", "#").replace("♭", "b")
    if not s or s[0].upper() not in _NATURALS:
        raise ChordParseError(f"unknown note name: {text!r}")
    value = _NATURALS[s[0].upper()]
    for ch in s[1:]:
        if ch == "#":
            value += 1
        elif ch == "b":
            value -= 1
        else:
            raise ChordParseError(f"unknown accidental {ch!r} in {text!r}")
    return value % 12


def parse_chord(text: str, g: Genus) -> Chord:
    """Parse chord text ``<root><modality>``, e.g. ``C+``, ``F#-``, ``Bb+``:
    the entry of ``all_chords(g)`` at the text's memoised table index."""
    index = _chord_index(text)  # before the genus is read, as a bad text raises first
    return all_chords(g)[index]


# Bounded, so that a stream of distinct texts cannot grow it without end.
@lru_cache(maxsize=256)
def _chord_index(text: str) -> int:
    """The index of the chord text in every genus's table: twice its root
    plus 1 for (-)."""
    s = text.strip()
    if len(s) < 2 or s[-1] not in ("+", "-"):
        raise ChordParseError(f"chord text must end in '+' or '-': {text!r}")
    return 2 * _pitch_class(s[:-1], text) + (s[-1] == "-")


@cache
def all_chords(g: Genus) -> tuple[Chord, ...]:
    """The table of a genus's 24 chords, roots ascending, (+) before (-), so
    chord (root, m) sits at index ``2*root + (m is MINUS)``: ``parse_chord``,
    ``apply`` and ``region.bridge_members`` read it by index.  Its entries
    are the registered chords, so a table built again holds the same
    objects.  A genus that is no ``Genus`` raises ``Chord``'s ``TypeError``."""
    return tuple(Chord(g, root, modality) for root in range(12) for modality in Modality)


@cache
def _chords_by_pitch_classes(g: Genus) -> dict[PcSet, Chord]:
    return {c.pitch_classes(): c for c in all_chords(g)}


def find_chord(s: Iterable[int], g: Genus) -> Chord | None:
    """The chord of genus g whose pitch classes are s, or None."""
    return _chords_by_pitch_classes(g).get(pcset(s))


def name_of(s: Iterable[int], g: Genus) -> Chord:
    """Identify the chord whose pitch classes are s.

    Template matching recovers the conventional root for triads and
    sevenths and, for hexachords, the lower note of the unique semitone
    pair.
    """
    c = find_chord(s, g)
    if c is None:
        raise NotAMemberError(
            f"{sorted(pcset(s))} is not a {g.plus_name} or {g.minus_name}"
        )
    return c


def perturb(cell: Iterable[int], note: int, direction: Direction | str) -> Chord:
    """Displace one note of a symmetric cell by a semitone and name the result.

    Downward displacement yields the (+) chord, upward the (-) chord.
    """
    members = pcset(cell)
    if not is_symmetric_cell(members):
        raise ValueError(f"{sorted(members)} is not a symmetric partition cell")
    note %= 12
    if note not in members:
        raise ValueError(f"pitch class {note} is not in the cell {sorted(members)}")
    direction = Direction(direction)
    delta = -1 if direction is Direction.DOWN else 1
    displaced = (members - {note}) | {(note + delta) % 12}
    return name_of(displaced, genus(len(members)))


def arthropod_collection(cell: Iterable[int]) -> tuple[Chord, ...]:
    """All 2n chords from perturbing each note of the cell both ways.

    These are the members of the cell's arthropod region (Weitzmann
    waterbug, Boretz spider, or centipede), ordered by note then
    down-before-up.
    """
    members = pcset(cell)
    if not is_symmetric_cell(members):
        raise ValueError(f"{sorted(members)} is not a symmetric partition cell")
    chords = []
    for note in sorted(members):
        chords.append(perturb(members, note, Direction.DOWN))
        chords.append(perturb(members, note, Direction.UP))
    return tuple(chords)


# The note each chord's parent cell displaced, as an offset above the chord's
# root: a (+) chord moved it down a semitone, a (-) chord up.
_DISPLACED_NOTE: dict[tuple[int, Modality], int] = {
    (3, Modality.PLUS): 8, (3, Modality.MINUS): 11,
    (4, Modality.PLUS): 1, (4, Modality.MINUS): 9,
    (6, Modality.PLUS): 2, (6, Modality.MINUS): 11,
}


@cache
def parent_symmetric_cell(c: Chord) -> Perturbation:
    """The unique cell, note, and direction whose perturbation reproduces c:
    the note sits a fixed offset above c's root, in the partition cell through it."""
    note = (c.root + _DISPLACED_NOTE[c.genus.n, c.modality]) % 12
    step = 12 // c.genus.n
    direction = Direction.DOWN if c.modality is Modality.PLUS else Direction.UP
    return Perturbation(frozenset(range(note % step, 12, step)), note, direction)
