"""Voice-leading relations between same-genus chords.

Two chords are related by moving m voices a semitone and n voices a whole
tone when some bijection between their pitch-class sets moves every voice by
at most two semitones (circular distance).  The reported pair is the most
parsimonious reading: minimal total displacement, then as few whole-tone
moves as possible.  Uncrossing voices never lengthens a voice-leading
(Tymoczko, Science 313, 2006), so only the n cyclic shifts of the sorted
sets are read; verify's exhaustive check over all 1,728 same-genus pairs is
what proves the tie-break falls among them too.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .chord import Chord, find_chord
from .errors import GenusMismatchError


class VoiceLeading(NamedTuple):
    semitones: int  # voices moved by one semitone
    whole_tones: int  # voices moved by two semitones

    @property
    def label(self) -> str:
        return f"P{self.semitones},{self.whole_tones}"


def _step(a: int, b: int) -> int:
    d = (a - b) % 12
    return min(d, 12 - d)


@cache
def vl_relation(x: Chord, y: Chord) -> VoiceLeading | None:
    """The most parsimonious voice-leading between x and y, or None when
    every bijection would move some voice more than a whole tone.  Reads
    only the cyclic shifts of y's sorted pitch classes against x's; verify's
    exhaustive check over all 1,728 pairs proves that enough here."""
    if x.genus != y.genus:
        raise GenusMismatchError(f"cannot relate {x} (n={x.genus.n}) to {y} (n={y.genus.n})")
    src = sorted(x.pitch_classes())
    dst = sorted(y.pitch_classes())
    best = None
    for k in range(len(dst)):
        steps = list(map(_step, src, dst[k:] + dst[:k]))
        key = (sum(steps), steps.count(2))
        if max(steps) <= 2 and (best is None or key < best):
            best = key
    if best is None:
        return None
    total, wholes = best
    return VoiceLeading(total - 2 * wholes, wholes)


def ssd_neighbors(x: Chord) -> tuple[Chord, ...]:
    """Same-genus chords reachable by moving exactly one voice one semitone."""
    s = x.pitch_classes()
    neighbors = set()
    for p in s:
        for delta in (1, -1):
            candidate = (s - {p}) | {(p + delta) % 12}
            if len(candidate) != len(s):
                continue
            c = find_chord(candidate, x.genus)
            if c is not None:
                neighbors.add(c)
    return tuple(sorted(neighbors, key=lambda c: c.sort_key))
