"""Mod-12 pitch-class arithmetic, prime forms, and set-class labels.

Pitch classes are plain integers 0..11 (C=0, C#=1, ..., B=11) and a
pitch-class set is a ``frozenset`` of them.  All operations normalize their
inputs mod 12, so callers may pass arbitrary integers.

``prime_form`` works on the set as a 12-bit mask (bit i for pitch class i):
a rotation of the set is a bit rotation of the mask, and the rotation's
highest bit is its packing span.  It builds no table, so importing the module
and its first call cost nothing extra.  ``to_mask`` and ``from_mask`` convert
a set to its mask and back; ``prime_form`` builds its own masks, so
``verify``'s invariance check, which reads sets from masks, shares no kernel
with it.

``set_class`` is memoised per normalised set (at most 4,095 keys).  The
``cycles`` command labels each call once, from its region's pitch union; the
memo mainly serves ``verify``'s slide-labels check, which classes the held
and moved parts of every split of every chord, so each distinct part costs
one ``prime_form`` search.  ``prime_form`` itself stays uncached: ``verify``
checks it directly on every set, and a cache there would share the path it
checks.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from typing import NamedTuple

PcSet = frozenset[int]

CHROMATIC: PcSet = frozenset(range(12))

# Only the set classes this library actually produces carry a Forte label;
# everything else keeps its prime form and no name.
FORTE_NAMES: dict[tuple[int, ...], str] = {
    (0, 3, 7): "3-11",
    (0, 4, 8): "3-12",
    (0, 2, 4, 6): "4-21",
    (0, 2, 4, 8): "4-24",
    (0, 2, 6, 8): "4-25",
    (0, 2, 5, 8): "4-27",
    (0, 3, 6, 9): "4-28",
    (0, 1, 4, 5, 8, 9): "6-20",
    (0, 1, 3, 5, 7, 9): "6-34",
    (0, 2, 4, 6, 8, 10): "6-35",
    (0, 1, 3, 4, 6, 7, 9, 10): "8-28",
    tuple(range(12)): "12-1",
}


# The interval class of an ascending interval of 0..11 semitones.
_INTERVAL_CLASS = (0, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)


class SetClass(NamedTuple):
    prime_form: tuple[int, ...]
    forte_name: str | None


def pc(value: int) -> int:
    """Reduce an integer to its pitch class.

    >>> pc(14), pc(-1)
    (2, 11)
    """
    return value % 12


def pcset(values: Iterable[int]) -> PcSet:
    """Normalize an iterable of integers to a pitch-class set."""
    return frozenset(v % 12 for v in values)


def transpose(s: Iterable[int], t: int) -> PcSet:
    """Shift every member by t semitones (mod 12).

    >>> sorted(transpose({0, 4, 8}, 1))
    [1, 5, 9]
    """
    return frozenset((v + t) % 12 for v in s)


def invert(s: Iterable[int], axis: int = 0) -> PcSet:
    """Replace every member x with (axis - x) mod 12.

    >>> sorted(invert({0, 4, 7}))
    [0, 5, 8]
    """
    return frozenset((axis - v) % 12 for v in s)


def to_mask(s: Iterable[int]) -> int:
    """The set as a 12-bit mask: bit p for pitch class p.

    >>> to_mask({0, 4, 7}), sorted(from_mask(145))
    (145, [0, 4, 7])
    """
    return sum(1 << p for p in pcset(s))


def from_mask(mask: int) -> PcSet:
    """The pitch classes of a 12-bit mask, the inverse of ``to_mask``."""
    return frozenset(p for p in range(12) if mask >> p & 1)


def prime_form(s: Iterable[int]) -> tuple[int, ...]:
    """Most compact, lexicographically smallest zero-based ordering over all
    rotations of the set and of its inversion.

    Exhaustive over the 24 candidates, each a rotation of the set's 12-bit
    mask or of its inversion's that puts a member at bit 0.  Every candidate
    has the same size, so among those with the least span (the highest bit)
    the lexicographically smaller sorted tuple is the one that holds the
    lowest bit where two candidates differ.  At cardinality 12 or below the
    Forte and Rahn packing conventions agree for every class this library
    touches.  Uncached, as the module docstring explains.

    >>> prime_form({0, 4, 7})
    (0, 3, 7)
    >>> prime_form({0, 3, 4, 7, 8, 11})
    (0, 1, 4, 5, 8, 9)
    >>> prime_form([-1, 14, 19])
    (0, 3, 7)
    """
    mask = inverse = 0
    for v in s:
        mask |= 1 << v % 12
        inverse |= 1 << -v % 12
    if not mask:
        raise ValueError("prime form of the empty set is undefined")
    best, span = 0, 13
    for form in (mask, inverse):
        double = form | form << 12
        for first in range(12):
            if form >> first & 1:
                rotated = double >> first & 0xFFF
                n = rotated.bit_length()
                if n < span or n == span and (d := rotated ^ best) & -d & rotated:
                    best, span = rotated, n
    return tuple([i for i in range(span) if best >> i & 1])


def set_class(s: Iterable[int]) -> SetClass:
    """Prime form plus Forte name, when the class is one this library names.

    >>> set_class({0, 4, 8})
    SetClass(prime_form=(0, 4, 8), forte_name='3-12')
    """
    return _set_class(pcset(s))


@cache
def _set_class(members: PcSet) -> SetClass:
    prime = prime_form(members)
    return SetClass(prime, FORTE_NAMES.get(prime))


def interval_class_vector(s: Iterable[int]) -> tuple[int, int, int, int, int, int]:
    """Counts of unordered pitch-class pairs at interval classes 1..6.

    >>> interval_class_vector({0, 2, 4, 6, 8, 10})
    (0, 6, 0, 6, 0, 3)
    """
    members = sorted(pcset(s))
    counts = [0] * 7  # indexed by interval class; slot 0 stays empty
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            counts[_INTERVAL_CLASS[b - a]] += 1
    return tuple(counts[1:])  # type: ignore[return-value]
