"""Voice-leading relations between same-genus chords.

Two chords are related by moving m voices a semitone and n voices a whole
tone when some bijection between their pitch-class sets moves every voice by
at most two semitones (circular distance).  The reported pair is the most
parsimonious reading: minimal total displacement, then as few whole-tone
moves as possible.  Uncrossing voices never lengthens a voice-leading
(Tymoczko, Science 313, 2006), so only the n cyclic shifts of the sorted
sets are read; verify's exhaustive check over all 1,728 same-genus pairs is
what proves the tie-break falls among them too.

Each catalog kind moves the voices by one relation of n, ``catalog_relation``:
relative P0,1, arthropod slide P2,0, bridge slide P(n-2),0, pole P(n),0.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .chord import Chord
from .errors import GenusMismatchError
from .transform import Kind, Transformation, apply, catalog


class VoiceLeading(NamedTuple):
    semitones: int  # voices moved by one semitone
    whole_tones: int  # voices moved by two semitones

    @property
    def label(self) -> str:
        return f"P{self.semitones},{self.whole_tones}"


@cache
def catalog_relation(t: Transformation) -> VoiceLeading:
    """The voice-leading from every chord to its image under t, read from
    t's kind; verify's relation-conformance checks it with vl_relation."""
    return {
        Kind.RELATIVE: VoiceLeading(0, 1),
        Kind.ARTHROPOD_SLIDE: VoiceLeading(2, 0),
        Kind.BRIDGE_SLIDE: VoiceLeading(t.genus.n - 2, 0),
        Kind.POLAR: VoiceLeading(t.genus.n, 0),
    }[t.kind]


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
    """Same-genus chords reachable by moving exactly one voice one semitone:
    x's images under the P1,0 tokens, the triad bridge slides P and L."""
    images = (apply(t, x) for t in catalog(x.genus) if catalog_relation(t) == (1, 0))
    return tuple(sorted(images, key=lambda c: c.sort_key))
