"""Voice-leading relations between same-genus chords.

Two chords are related by moving m voices a semitone and n voices a whole
tone when some bijection between their pitch-class sets moves every voice by
at most two semitones (circular distance).  The reported pair is the most
parsimonious reading: minimal total displacement, then as few whole-tone
moves as possible.  Uncrossing voices never lengthens a voice-leading
(Tymoczko, Science 313, 2006), so only the n cyclic shifts of the sorted
sets are read; verify's exhaustive check over all 1,728 same-genus pairs is
what proves the tie-break falls among them too.

Transposing both chords by one interval keeps every step, so the relation
depends only on the genus, the two modalities and the root difference:
``vl_relation`` reads it from a memoised scan of the genus templates keyed
by those, one scan per modality pair and root difference (144 in all).

Each catalog kind moves the voices by one relation of n, ``catalog_relation``:
relative P0,1, arthropod slide P2,0, bridge slide P(n-2),0, pole P(n),0.
So ``ssd_neighbors``, the single-semitone neighbours, are a chord's images
under the P1,0 tokens, the triad bridge slides; it is cached per chord, 72
keys in all.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .chord import Chord, Genus, Modality
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
    every bijection would move some voice more than a whole tone.  Read from
    the cyclic-shift scan for the two modalities and the root difference;
    verify's exhaustive check over all 1,728 pairs proves that enough here."""
    if x.genus is not y.genus:
        raise GenusMismatchError(f"cannot relate {x} (n={x.genus.n}) to {y} (n={y.genus.n})")
    return _relation(x.genus, x.modality, y.modality, (y.root - x.root) % 12)


@cache
def _relation(g: Genus, xm: Modality, ym: Modality, diff: int) -> VoiceLeading | None:
    """vl_relation from the xm chord on root 0 to the ym chord on root diff:
    the cyclic shifts of the second's sorted pitch classes, its template
    shifted by diff, against the first's, its template.  At most 144 keys,
    each scanned on first use."""
    src = sorted(g.template(xm))
    dst = sorted((diff + i) % 12 for i in g.template(ym))
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


@cache
def ssd_neighbors(x: Chord) -> tuple[Chord, ...]:
    """Same-genus chords reachable by moving exactly one voice one semitone:
    x's images under the tokens whose ``catalog_relation`` is P1,0.  Bridge
    slides are P(n-2),0, so these are the triad bridge slides P and L, and
    n=4 and n=6 have none.  Cached: there are 72 chords to ask about."""
    images = (apply(t, x) for t in catalog(x.genus) if catalog_relation(t) == VoiceLeading(1, 0))
    return tuple(sorted(images, key=lambda c: c.sort_key))
