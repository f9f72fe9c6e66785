"""Voice-leading regions as labeled graphs, plus smooth-cycle enumeration.

An arthropod region collects the 2n perturbations of one symmetric cell; its
graph is complete bipartite across modalities (one relative edge and n-1
slide edges per chord).  A bridge region collects both modalities over one
cell of roots; its graph is complete bipartite minus the polar pairs, which
share no pitch classes.  Each smooth cycle of a bridge region is listed once,
read from its smallest chord toward its smaller neighbour.

The bridge regions of a genus are transpositions of one another, so with
their chords numbered in sort_key order they have the same graph.  There is
one cached full walk per graph, keyed by the neighbour masks, not by the
region or the length window, and a window is a slice of it.  So the bridge
regions of a genus share one walk and one tuple of cycles, and no window
walks again once its graph is walked: 2.1 MB kept at n=6.  Beside each
walk is cached its coded form, which ``nearsym cycles`` renders: one bytes
per length k, k bytes per cycle, each byte a chord id and its position in
the cycle (first, inner or last).  That is 166,440 bytes at n=6, built on
the first ``cycles`` call of a graph and never by ``verify``.

The cycle walk runs over integer ids in sort_key order.  Each id has a
neighbour bitmask, and a ``free`` mask holds the unvisited ids above the
path's start; the walk steps through a mask's set bits lowest first.  A path
starts only where at least 4 ids lie at or above it, enough to make a cycle.

Each kind has its own builder, which names its members and the token kinds
that join them: ``arthropod_regions`` perturbs each symmetric cell and joins
by relatives and arthropod slides, ``bridge_regions`` takes both modalities
over each cell of roots and joins by bridge slides.  Both hand one region at
a time to the same kind-free ``_region``.  Edges are arithmetic on the
catalog offsets: each (+) member's image under each of the region's tokens,
labelled with its kind's relation (``catalog_relation``: relative P0,1,
arthropod slide P2,0, bridge slide P(n-2),0).  Their oracles
in ``verify`` are ``catalog-coverage`` (each chord's 2n images are the
opposite-modality members of its two regions), ``region-degrees`` and
``relation-conformance``.

``export_graph`` memoises its text: 18 regions, 2 formats and 2 spellings
give at most 72 strings, about 105 KB, so each is serialized once per
process.  Only the immutable string is kept; ``region_to_dict`` builds a
fresh dict on every call.  The memo is sound because ``Region`` is frozen
and compares by all its fields: a copy with any field changed is a
different key, although it hashes like the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from itertools import accumulate, chain
from typing import NamedTuple

from .chord import Chord, Genus, Modality, all_chords, arthropod_collection, parent_symmetric_cell
from .errors import CycleLengthError, InvariantViolationError
from .pcset import PcSet, set_class
from .symmetry import symmetric_partition
from .transform import Kind, Transformation, apply, catalog
from .voiceleading import VoiceLeading, catalog_relation


class RegionKind(Enum):
    ARTHROPOD = "arthropod"
    BRIDGE = "bridge"


# Bound once: on Python 3.11 each RegionKind.X read runs the enum class's
# Python __getattr__ hook, which region_of would pay on every call.
_ARTHROPOD, _BRIDGE = RegionKind


ARTHROPOD_FAMILIES = {3: "waterbug", 4: "spider", 6: "centipede"}
BRIDGE_FAMILIES = {3: "hexatonic", 4: "octatonic", 6: "dodecatonic"}

# Compass aliases attach to the four hexatonic regions only, keyed by the
# region id (smallest root); C+ sits in the Northern region.
HEXATONIC_ALIASES = {0: "Northern", 1: "Eastern", 2: "Southern", 3: "Western"}


class Edge(NamedTuple):
    a: Chord
    b: Chord
    transformation: Transformation
    relation: VoiceLeading


@dataclass(frozen=True)
class Region:
    kind: RegionKind
    genus: Genus
    id: int
    members: tuple[Chord, ...]
    edges: tuple[Edge, ...]
    pitch_union: PcSet

    @property
    def family(self) -> str:
        families = ARTHROPOD_FAMILIES if self.kind is RegionKind.ARTHROPOD else BRIDGE_FAMILIES
        return families[self.genus.n]

    @property
    def alias(self) -> str | None:
        if self.kind is RegionKind.BRIDGE and self.genus.n == 3:
            return HEXATONIC_ALIASES[self.id]
        return None

    def __hash__(self) -> int:
        # agrees with __eq__, since equal regions share kind, genus and id
        return hash((self.genus.n, self.id, self.kind is _BRIDGE))

    def __repr__(self) -> str:
        return f"Region({self.family}_{self.id}, {len(self.members)} chords)"


def _region(kind: RegionKind, id: int, members: tuple[Chord, ...], edge_kinds: tuple[Kind, ...]) -> Region:
    """The region of these members whose edges join each (+) member to its
    image under each catalog token of edge_kinds; the image must be a member
    too.  Poles label no edge."""
    g = members[0].genus
    tokens = [t for t in catalog(g) if t.kind in edge_kinds]
    edges = []
    for x in (m for m in members if m.modality is Modality.PLUS):
        for t in tokens:
            y = apply(t, x)
            if y not in members:
                raise InvariantViolationError(f"{t.token} sends {x} to {y}, outside its region")
            a, b = sorted((x, y), key=lambda c: c.sort_key)
            edges.append(Edge(a, b, t, catalog_relation(t)))
    edges.sort(key=lambda e: (e.a.sort_key, e.b.sort_key))
    return Region(kind, g, id, members, tuple(edges), _pitch_union(members))


def _pitch_union(members: tuple[Chord, ...]) -> PcSet:
    union: frozenset[int] = frozenset()
    for m in members:
        union |= m.pitch_classes()
    return union


@cache
def arthropod_regions(g: Genus) -> tuple[Region, ...]:
    """One region per symmetric cell, numbered by its smallest pitch class:
    the cell's 2n perturbations, joined by relatives and arthropod slides.
    4 waterbugs, 3 spiders, or 2 centipedes."""
    kinds = (Kind.RELATIVE, Kind.ARTHROPOD_SLIDE)
    return tuple(
        _region(RegionKind.ARTHROPOD, min(cell), arthropod_collection(cell), kinds)
        for cell in symmetric_partition(g.n)
    )


@cache
def bridge_regions(g: Genus) -> tuple[Region, ...]:
    """One region per cell of roots, numbered by its lowest root: both
    modalities over the cell, joined by bridge slides.  4 hexatonic,
    3 octatonic, or 2 dodecatonic."""
    kinds = (Kind.BRIDGE_SLIDE,)
    return tuple(
        _region(RegionKind.BRIDGE, root, bridge_members(Chord(g, root, Modality.PLUS)), kinds)
        for root in range(12 // g.n)
    )


def region_of(c: Chord, kind: RegionKind) -> Region:
    """The unique region of the given kind containing c, by arithmetic.  A
    bridge region holds one cell of roots, so c's is number c.root % (12/n);
    an arthropod region holds the perturbations of one symmetric cell, so
    c's is number note % (12/n), for the note c's parent cell displaced: the
    cell is every (12/n)-th pitch class from that number.  Both region lists
    are ordered by these numbers, their region ids.  Any kind but a
    ``RegionKind`` member raises ``ValueError``.  The two members are
    compared as module globals, bound at import, so a call reads no
    attribute of the enum class."""
    if kind is _ARTHROPOD:
        return arthropod_regions(c.genus)[parent_symmetric_cell(c).note % (12 // c.genus.n)]
    if kind is _BRIDGE:
        return bridge_regions(c.genus)[c.root % (12 // c.genus.n)]
    raise ValueError(f"unknown region kind: {kind!r}")


# Membership is arithmetic on the chord and reads no built region, so that
# bridge_regions can call bridge_members while it builds the regions.
@cache
def arthropod_members(c: Chord) -> tuple[Chord, ...]:
    """The 2n chords generated from c's parent symmetric cell; cached, as
    ``verify``'s oracles ask for them once per move."""
    return arthropod_collection(parent_symmetric_cell(c).cell)


def bridge_members(c: Chord) -> tuple[Chord, ...]:
    """Both-modality chords whose roots share c's root cell, (+) block first:
    every 12/n-th root of the chord table, from the cell's lowest root."""
    step = 12 // c.genus.n
    chords, first = all_chords(c.genus), 2 * (c.root % step)
    return chords[first::2 * step] + chords[first + 1::2 * step]


def polar(c: Chord) -> Chord:
    """The opposite-modality member of c's bridge region disjoint from c,
    reached by the genus's pole (H, O, or Z), its catalog's last token."""
    return apply(catalog(c.genus)[-1], c)


def adjacency(region: Region) -> dict[Chord, set[Chord]]:
    """Each member's neighbours in the region graph."""
    adj: dict[Chord, set[Chord]] = {m: set() for m in region.members}
    for e in region.edges:
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    return adj


@dataclass(frozen=True)
class SmoothCycle:
    """A simple closed path in a bridge-region graph; the edge from the last
    chord back to the first is implied."""

    chords: tuple[Chord, ...]

    def __len__(self) -> int:
        return len(self.chords)

    @property
    def pitch_union(self) -> PcSet:
        return _pitch_union(self.chords)


def _extend(
    path: list[int], free: int, nbm: tuple[int, ...], ends: int, found: list[list[tuple[int, ...]]]
) -> None:
    """Appends to found[length] each cycle that extends `path` through free
    ids and closes at `ends`, stepping to the free neighbours lowest first.
    A module-level function, not a closure that calls itself: such a closure
    keeps each call's `found` in a reference cycle until the collector runs."""
    length = len(path) + 1
    rest = nbm[path[-1]] & free
    while rest:
        bit = rest & -rest
        rest ^= bit
        path.append(bit.bit_length() - 1)
        if length >= 4 and ends & bit:
            found[length].append(tuple(path))
        _extend(path, free ^ bit, nbm, ends, found)
        path.pop()


def _graph(
    region: Region, min_len: int, max_len: int | None
) -> tuple[tuple[Chord, ...], tuple[int, ...], int]:
    """The region's chords in sort_key order, each one's neighbour mask over
    their ids, and the window's max_len, once the region and the window are
    checked: a window outside 4 <= min_len <= max_len <= size raises
    ``CycleLengthError``, and a region of another kind a plain
    ``ValueError``.  The one check of both for every cycle accessor."""
    if region.kind is not RegionKind.BRIDGE:
        raise ValueError("smooth cycles are defined only on bridge regions")
    size = len(region.members)
    if max_len is None:
        max_len = size
    if not 4 <= min_len <= max_len <= size:
        raise CycleLengthError(f"cycle lengths must satisfy 4 <= min <= max <= {size}")

    # Vertex ids follow sort_key order, so comparing ids compares chords.
    chords = tuple(sorted(region.members, key=lambda c: c.sort_key))
    ids = {c: i for i, c in enumerate(chords)}
    adj = adjacency(region)
    return chords, tuple(sum(1 << ids[n] for n in adj[c]) for c in chords), max_len


def smooth_cycle_ids(
    region: Region, min_len: int = 4, max_len: int | None = None
) -> tuple[tuple[Chord, ...], tuple[tuple[int, ...], ...]]:
    """The smooth cycles of a bridge region as integer ids: the region's
    chords in sort_key order, and each cycle as a tuple of indices into them.
    Same cycles, order, bounds and errors as ``enumerate_smooth_cycles``,
    which wraps this; ``verify`` reads its cycles from here, and
    ``nearsym cycles`` renders the same cycles from ``smooth_cycle_codes``."""
    chords, nbm, max_len = _graph(region, min_len, max_len)
    cycles, starts = _walk(nbm)
    return chords, cycles[starts[min_len]:starts[max_len + 1]]


def smooth_cycle_codes(
    region: Region, min_len: int = 4, max_len: int | None = None
) -> tuple[tuple[Chord, ...], tuple[tuple[int, bytes], ...]]:
    """The cycles of ``smooth_cycle_ids``, coded for rendering: the region's
    chords in sort_key order, and a (k, codes) pair for each length k of the
    window, ascending.  codes holds that length's cycles in order, k bytes
    each; the byte for chord id at position i of its cycle is
    ``id + size * p``, where p is 0 at the first position, 2 at the last and
    1 between, so ``byte % size`` is the id."""
    chords, nbm, max_len = _graph(region, min_len, max_len)
    return chords, _coded(nbm)[min_len - 4:max_len - 3]


# One full walk per graph, keyed by its neighbour masks: the bridge regions
# of a genus share one graph, so they share one walk and one cycle tuple,
# and every window of theirs is a slice of it.
@cache
def _walk(nbm: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Every cycle, as ids, of the graph whose id i has neighbour mask
    nbm[i], lengths 4 to len(nbm), in ``smooth_cycle_ids`` order; and the
    index in them where each length starts, so that length k runs from
    starts[k] to starts[k + 1]."""
    size = len(nbm)

    # Each path starts at its cycle's smallest vertex, so it walks only the
    # `free` ids: unvisited and above the start.  A cycle needs 4 ids at or
    # above its start, which bounds the starts.  Of a cycle's two readings
    # only the one with path[1] < path[-1] is emitted, so a path closes at
    # `ends`: the start's neighbours above the second vertex.  Starts ascend
    # and each step takes the lowest free bit first, so each length's list
    # fills in sorted order.
    found: list[list[tuple[int, ...]]] = [[] for _ in range(size + 1)]
    for start in range(size - 3):
        free = ((1 << size) - 1) & (-2 << start)
        rest = nbm[start] & free
        while rest:
            bit = rest & -rest
            rest ^= bit
            ends = nbm[start] & -(bit << 1)
            _extend([start, bit.bit_length() - 1], free ^ bit, nbm, ends, found)

    return tuple(chain.from_iterable(found)), tuple(accumulate(map(len, found), initial=0))


# The coded form of a graph's full walk, cached beside it and keyed the same
# way, so the bridge regions of a genus share it too.  Only `nearsym cycles`
# asks for it, so `verify` never builds it.
@cache
def _coded(nbm: tuple[int, ...]) -> tuple[tuple[int, bytes], ...]:
    """A (k, codes) pair for each length k from 4 to len(nbm), in the
    ``smooth_cycle_codes`` form.  The ids of a length are packed into bytes,
    then the ids at each inner position and at the last position are
    recoded in one strided slice each; a byte holds any code, as
    3 * size <= 36."""
    size = len(nbm)
    cycles, starts = _walk(nbm)
    inner, last = (bytes(range(p * size, p * size + size)).ljust(256, b"\0") for p in (1, 2))
    coded = []
    for k in range(4, size + 1):
        codes = bytearray(chain.from_iterable(cycles[starts[k]:starts[k + 1]]))
        for i in range(1, k - 1):
            codes[i::k] = codes[i::k].translate(inner)
        codes[k - 1::k] = codes[k - 1::k].translate(last)
        coded.append((k, bytes(codes)))
    return tuple(coded)


def enumerate_smooth_cycles(
    region: Region, min_len: int = 4, max_len: int | None = None
) -> tuple[SmoothCycle, ...]:
    """All simple cycles of the region graph with length (chord count) in
    [min_len, max_len], each listed once: read from its smallest chord toward
    the smaller of that chord's two cycle neighbours.  Sorted by length, then
    by chord sort keys.

    Defined for bridge regions only; the hexatonic graph has exactly one
    cycle, the hexagon itself.  ``smooth_cycle_ids`` gives the same cycles
    as integer ids, without building a ``SmoothCycle`` per cycle; ``verify``
    uses it.
    """
    chords, cycles = smooth_cycle_ids(region, min_len, max_len)
    return tuple(SmoothCycle(tuple(chords[i] for i in cycle)) for cycle in cycles)


class Complementarity(NamedTuple):
    pairs: tuple[tuple[str, str], ...]
    unpaired: tuple[str, ...]


def complementarity_pairs(g: Genus) -> Complementarity:
    """Arthropod slides matched to the bridge slide with held and moved
    parts swapped, e.g. S3(4) with S4 = S4(3); every slide in no pair is
    unpaired, in catalog order."""
    slides = [t for t in catalog(g) if t.kind in (Kind.ARTHROPOD_SLIDE, Kind.BRIDGE_SLIDE)]
    bridge = {(t.invariant, t.moved): t.token for t in slides if t.kind is Kind.BRIDGE_SLIDE}
    pairs = tuple(
        (t.token, bridge[t.moved, t.invariant])
        for t in slides
        if t.kind is Kind.ARTHROPOD_SLIDE and (t.moved, t.invariant) in bridge
    )
    paired = set(chain.from_iterable(pairs))
    return Complementarity(pairs, tuple(t.token for t in slides if t.token not in paired))


def region_to_dict(region: Region, flats: bool = False) -> dict:
    """The documented JSON form of a region."""
    return {
        "kind": region.kind.value,
        "genus": region.genus.n,
        "id": str(region.id),
        "members": [m.name(flats) for m in region.members],
        "pitch_union": sorted(region.pitch_union),
        "set_class": set_class(region.pitch_union).forte_name,
        "edges": [
            {
                "a": e.a.name(flats),
                "b": e.b.name(flats),
                "transform": e.transformation.token,
                "relation": [e.relation.semitones, e.relation.whole_tones],
            }
            for e in region.edges
        ],
    }


def export_graph(region: Region, format: str = "dot", flats: bool = False) -> str:
    """Serialize a region graph as DOT or as the documented JSON schema.

    The text is memoised per (region, format, spelling): a repeated call
    returns the same string, and the memo holds at most the 72 there are.
    A region that differs in any field, such as a copy with an edge dropped,
    compares unequal and never reads another's entry.  An unknown format
    raises ``ValueError`` and is not remembered.
    """
    return _export(region, format, bool(flats))


# 72 = 18 regions (12/n symmetric cells for n = 3, 4, 6, each giving one
# arthropod and one bridge region) x 2 formats x 2 spellings.
@lru_cache(maxsize=72)
def _export(region: Region, format: str, flats: bool) -> str:
    if format == "json":
        import json

        return json.dumps(region_to_dict(region, flats), indent=2) + "\n"
    if format == "dot":
        lines = [f"graph {region.family}_{region.id} {{"]
        for m in region.members:
            lines.append(f'  "{m.name(flats)}";')
        for e in region.edges:
            label = f"{e.transformation.token} {e.relation.label}"
            lines.append(f'  "{e.a.name(flats)}" -- "{e.b.name(flats)}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format: {format!r} (expected 'dot' or 'json')")
