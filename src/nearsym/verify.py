"""Executable verification of the library's structural claims.

Each check is one claim: a predicate over a named domain of cases (chords,
same-genus pairs, (transformation, chord) moves, (cell, note, direction)
perturbations, (region, member) pairs, or every pitch-class set), and a FAIL
line names the first case that breaks it: a chord by name (``C+``), a
transformation by token, a region as ``<family> region <id>``, a pitch-class
set sorted.  Facts about a whole genus are computed once, outside the
predicates, so a false one fails the first case; an empty domain fails as
``no cases`` instead of holding vacuously.  The voice-leading, slide-label
and cycle checks compare the library to naive re-derivations kept apart from
the code paths they confirm; slide-labels re-derives the catalog's root
offsets from the partition-and-shift definition of each slide.

The claims form one ordered table, ``_CLAIMS``: each entry is a name, a
scope (Z12, or each genus), the cases and the predicate, and ``run_checks``
walks it in order.  The cases and the predicate read one facts object per
scope, which builds each table (the chords, each kind's regions, the cycle
walks) the first time a claim reads it and keeps it until the scope is done.
So a claim pays for the tables it reads first, and the claims before it run
without them: at n=3 the seven claims before arthropod-partition build no
region.  A library fault the claim runs into, an ``InvariantViolationError``
such as a region builder's refusal of a catalog image outside the region,
fails that claim with the error's message, and the next claim runs; any
other exception propagates.  Each region kind has its own tables, and no
table holds both kinds, so a fault in one kind's builder fails only the
claims that read that kind (region-degrees reads both): with R's offset
wrong at n=3, ``FAIL arthropod-partition [n=3]: R sends E+ to D-, outside
its region``, and every bridge claim passes.  The oracles read region
membership by arithmetic (``arthropod_members``, ``bridge_members``), never
through a built region, whose edges ``apply`` labels.

vl-oracle-agreement's re-derivation, ``_naive_vl``, walks every bijection
between the two chords whose steps are all at most a whole tone, and shares
nothing with the cyclic shifts ``vl_relation`` reads.  A bijection with a
step over two semitones is no voice-leading, so nothing the walk prunes can
be the answer: the search stays exhaustive.

prime-form-invariance computes each set's prime form and interval-class
vector once, into a table indexed by the set's 12-bit mask (bit p for pitch
class p), and compares each set's entry with the entries at the masks of its
T1 and I0 images.  Both kernels are functions of the set, so the entry at an
image's mask is what the kernel answers on the image: comparing entries is
the same claim as calling the kernels on both sides, with each set computed
once.  The image masks are arithmetic on the set's mask, with no set built:
T1 sends bit p to bit p+1 mod 12, a left rotation of the 12 bits, and I0
sends bit p to bit -p mod 12, which is reversing the 12 bits (p to 11-p)
and then rotating left once.

cycle-structure also proves the enumerated cycles distinct, with two rules
per cycle beside the per-hop ones.  A cycle has exactly one reading from its
smallest id toward the smaller of that id's two cycle neighbours, and each
cycle must be in that reading; and each must follow the cycle before it in
(length, ids) order, the order ``enumerate_smooth_cycles`` documents.
Distinct readings in strictly increasing order cannot repeat a cycle, and
checking that holds one previous cycle, not a set of them all.

cycle-structure also proves that every smooth cycle, of every length,
covers its region's pitch union, the one collection the region spans
(hexatonic 6-20, octatonic 8-28, chromatic 12-1); ``nearsym cycles`` prints
the region's union as each cycle's union on the strength of it.  A cycle's
union is read from a table indexed by its mask of ids (4,096 entries at
n=6), so the rule costs one lookup per cycle.

graph-shape checks one rule for every genus: each bridge graph is the crown
graph, K(n,n) minus a perfect matching, with the two modalities as its sides
(the missing matching is the polar pairs, which share no pitch class).  The
crown graph on 3 + 3 vertices is the hexagon C6 and on 4 + 4 the cube Q3, so
the rule covers the hexatonic and octatonic shapes too.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Any

from .chord import (
    Chord,
    GENERA,
    Modality,
    all_chords,
    find_chord,
    genus,
    parent_symmetric_cell,
    perturb,
)
from .errors import InvariantViolationError
from .pcset import (
    FORTE_NAMES,
    PcSet,
    from_mask,
    interval_class_vector,
    invert,
    prime_form,
    set_class,
    to_mask,
    transpose,
)
from .region import (
    Region,
    RegionKind,
    adjacency,
    arthropod_members,
    arthropod_regions,
    bridge_members,
    bridge_regions,
    complementarity_pairs,
    polar,
    region_of,
    smooth_cycle_ids,
)
from .symmetry import cycle_from_generator, generators_of_z12, symmetric_partition
from .transform import (
    Kind,
    TETRAD_CLASSES,
    Transformation,
    apply,
    catalog,
    transformation_between,
)
from .voiceleading import VoiceLeading, catalog_relation, vl_relation

# Simple-cycle counts of the bridge graphs, keyed by cycle length.  Each
# bridge graph is a crown graph, K(n,n) minus a perfect matching, whose
# Hamiltonian cycles number (n-1)! * U_n / 2, with U_n the menage numbers
# (Lucas 1891; Touchard 1934): U_3 = 1, U_4 = 2, U_6 = 80 give 1, 6, 4800.
# The shorter lengths follow by inclusion-exclusion over the missing
# matching (tests/oracles.py, crown_cycle_counts).
EXPECTED_CYCLE_COUNTS: dict[int, dict[int, int]] = {
    3: {6: 1},
    4: {4: 6, 6: 16, 8: 6},
    6: {4: 90, 6: 680, 8: 3330, 10: 7776, 12: 4800},
}

EXPECTED_REGION_COUNTS = {3: 4, 4: 3, 6: 2}
EXPECTED_BRIDGE_SET_CLASSES = {3: "6-20", 4: "8-28", 6: "12-1"}


@dataclass(frozen=True)
class CheckResult:
    name: str
    genus: int | None
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        scope = f" [n={self.genus}]" if self.genus is not None else ""
        suffix = f": {self.detail}" if (self.detail and not self.passed) else ""
        return f"{status} {self.name}{scope}{suffix}"


def _naive_vl(x: Chord, y: Chord) -> VoiceLeading | None:
    """Reference voice-leading search: a depth-first walk over every
    bijection from x's pitch classes to y's that moves each voice at most a
    whole tone, keeping the least (total displacement, whole tones).

    A bijection with a longer step is no voice-leading at all, so each voice
    tries only the unused targets within a whole tone of it; nothing the walk
    skips can be the answer, and it stays exhaustive over the rest.  The walk
    keeps its own stack of (voice, used targets, total, whole tones)."""
    dst = sorted(y.pitch_classes())
    near = []  # per voice of x: (target bit, step) for each y pitch within a whole tone
    for a in sorted(x.pitch_classes()):
        options = []
        for j, b in enumerate(dst):
            d = (a - b) % 12
            d = min(d, 12 - d)
            if d <= 2:
                options.append((1 << j, d))
        near.append(options)
    best = None
    stack = [(0, 0, 0, 0)]
    while stack:
        i, used, total, wholes = stack.pop()
        if i == len(near):
            if best is None or (total, wholes) < best:
                best = (total, wholes)
            continue
        for bit, d in near[i]:
            if not used & bit:
                stack.append((i + 1, used | bit, total + d, wholes + (d == 2)))
    if best is None:
        return None
    total, wholes = best
    return VoiceLeading(total - 2 * wholes, wholes)


def _same_region(t: Transformation, c: Chord, image: Chord) -> bool:
    """image lies in the region t keeps c in: c's arthropod region for
    relatives and arthropod slides, its bridge region otherwise.  Membership
    is arithmetic on c and builds no region, whose edges ``apply`` labels."""
    arthropod = t.kind in (Kind.RELATIVE, Kind.ARTHROPOD_SLIDE)
    return image in (arthropod_members(c) if arthropod else bridge_members(c))


def _slide_images(t: Transformation, c: Chord) -> set[Chord]:
    """Every chord that t's partition-and-shift definition reaches from c:
    split c into the held and moved parts t names, shift the moved part a
    semitone either way, and keep the opposite-modality chords in t's region."""
    # prime form of each named part: an interval class is a dyad, W / A / F a tetrad
    held_class, moved_class = (
        None if part is None else TETRAD_CLASSES.get(part, (0, part))
        for part in (t.invariant, t.moved)
    )
    pcs = c.pitch_classes()
    images = set()
    for moved in combinations(sorted(pcs), len(moved_class) if moved_class else 1):
        held = pcs - set(moved)
        if moved_class and set_class(moved).prime_form != moved_class:
            continue
        if held_class and set_class(held).prime_form != held_class:
            continue
        for delta in (1, -1):
            image = find_chord(held | {(p + delta) % 12 for p in moved}, c.genus)
            if image is not None and image.modality is not c.modality and _same_region(t, c, image):
                images.add(image)
    return images


def _cycle_checks(r: Region, adj: dict[Chord, set[Chord]]) -> tuple[str, str]:
    """(cycle-counts failure, cycle-structure failure) for one bridge region
    with neighbours `adj`, from one call of ``smooth_cycle_ids``; the region
    module caches one full walk per graph, so the other regions of the genus,
    which have the same graph, read the same tuple of cycles.  Each is ""
    when its claim holds; else the first names the region and the counts it
    found, the second the first offending cycle and the rule it breaks."""
    chords, cycles = smooth_cycle_ids(r)
    found = dict(sorted(Counter(map(len, cycles)).items()))
    expected = EXPECTED_CYCLE_COUNTS[r.genus.n]
    counts = "" if found == expected else f"{_name(r)}: found {found}, expected {expected}"
    return counts, _cycle_structure(r, adj, chords, cycles)


def _cycle_structure(
    r: Region,
    adj: dict[Chord, set[Chord]],
    chords: tuple[Chord, ...],
    cycles: tuple[tuple[int, ...], ...],
) -> str:
    """The cycles are id tuples indexing chords, which must be r's members.
    Every cycle has at least 4 ids and visits distinct members along the
    edges of `adj`, closing hop included, alternating modality; every cycle
    covers r's pitch union, and there is a full-length one.  Each cycle is
    read from its smallest id toward the smaller of that id's two cycle
    neighbours, and follows the cycle before it in (length, ids) order, so no
    cycle is listed twice.  Each id has one mask of its opposite-modality
    neighbours and a modality flag; ``covers`` maps each mask of ids (bit i
    for id i) to the union of their pitch-class masks, so a ring's union is
    ``covers[seen]`` of the ids the hop rules saw.

    An id outside the chords never passes the hop rules (one too large is no
    neighbour, a negative one shifts to no bit), so ``_culprit`` checks
    the ids of a failing ring only, and names an outside id before any other
    rule; a pass over every id would cost a tenth of this check."""
    if len(chords) != len(r.members) or set(chords) != set(r.members):
        return f"{_name(r)}: the cycle ids do not number its members"
    ids = {c: i for i, c in enumerate(chords)}
    across = [sum(1 << ids[o] for o in adj[c] if o.modality is not c.modality) for c in chords]
    plus = [c.modality is Modality.PLUS for c in chords]
    covers = [0]
    for c in chords:
        mask = to_mask(c.pitch_classes())
        covers += [cover | mask for cover in covers]
    union = to_mask(r.pitch_union)
    full = 2 * r.genus.n
    any_full = False
    last: tuple = ()
    for ring in cycles:
        if len(ring) < 4:
            return _culprit(chords, ring, "it has fewer than 4 chords")
        seen = 0
        prev = ring[-1]
        try:
            for v in ring:
                bit = 1 << v
                if seen & bit:
                    return _culprit(chords, ring, f"{chords[v]} repeats")
                if not across[prev] & bit:
                    rule = "keeps the modality" if plus[prev] == plus[v] else "is not an edge"
                    return _culprit(chords, ring, f"{chords[prev]} -> {chords[v]} {rule}")
                seen |= bit
                prev = v
        except (IndexError, ValueError):  # raised only by an id outside the chords
            return _culprit(chords, ring, "")
        if seen & ((1 << ring[0]) - 1) or not ring[1] < ring[-1]:
            rule = "it is not read from its smallest chord toward the smaller neighbour"
            return _culprit(chords, ring, rule)
        key = (len(ring), ring)
        if key <= last:
            rule = "it does not follow the cycle before it in (length, chords) order"
            return _culprit(chords, ring, rule)
        last = key
        if covers[seen] != union:
            return _culprit(chords, ring, "it misses part of the region's pitch union")
        any_full = any_full or len(ring) == full
    return "" if any_full else f"{_name(r)} has no cycle of length {full}"


def _culprit(chords: tuple[Chord, ...], ring: tuple[int, ...], rule: str) -> str:
    """The ring by its chords and the rule it breaks.  An id outside the
    chords is named by its number (``chords[-1]`` would name a wrong chord)
    and is the rule."""
    outside = [v for v in ring if not 0 <= v < len(chords)]
    rule = f"id {outside[0]} is outside 0..{len(chords) - 1}" if outside else rule
    names = " ".join(str(v) if v in outside else chords[v].name() for v in ring)
    return f"cycle {names or '()'}: {rule}"


def _name(case: Any) -> str:
    """A case as a FAIL line names it: a tuple part by part, a set sorted, a
    region by family and id, anything else (chord, token, text) as it prints."""
    if isinstance(case, tuple):
        return f"({', '.join(map(_name, case))})"
    if isinstance(case, frozenset):
        return f"{{{', '.join(map(str, sorted(case)))}}}"
    if isinstance(case, Region):
        return f"{case.family} region {case.id}"
    return str(case)


def _first_failure(facts: _Facts, cases: Callable, holds: Callable) -> str:
    """The name of the first of cases(facts) on which holds(facts, case) is
    false, "" if there is none, and "no cases" for an empty domain."""
    domain = cases(facts)
    return next((_name(case) for case in domain if not holds(facts, case)), "") if domain else "no cases"


class _Facts:
    """The tables the claims of one scope read: genus n, or for n None, Z12
    and every pitch-class set.  A table is built by its ``_TABLES`` entry the
    first time a claim reads it, and kept."""

    def __init__(self, n: int | None) -> None:
        self.n = n

    def __getattr__(self, table: str) -> Any:
        value = _TABLES[table](self)
        setattr(self, table, value)
        return value


def _members(regions: Sequence[Region]) -> list[tuple[Region, Chord]]:
    return [(r, m) for r in regions for m in r.members]


def _tiles(facts: _Facts, regions: Sequence[Region]) -> bool:
    """The family has its count of regions, which list every chord once."""
    counts = Counter(m for _, m in _members(regions))
    return len(regions) == EXPECTED_REGION_COUNTS[facts.n] and counts == Counter(set(facts.chords))


def _forms(facts: _Facts) -> list[tuple | None]:
    """Each set's (prime form, interval-class vector) at its mask, as the
    module docstring explains.  Equal entries are shared: there are 223
    distinct ones, so the table holds about 70 KB where unshared entries
    took 970."""
    table: list[tuple | None] = [None]
    shared: dict[tuple, tuple] = {}
    for s in facts.sets:
        entry = (prime_form(s), interval_class_vector(s))
        table.append(shared.setdefault(entry, entry))
    return table


# Each table by the name the claims read it, built from the facts of one
# scope: the Z12 tables first, then a genus's.
_TABLES: dict[str, Callable[[_Facts], Any]] = {
    "gens": lambda f: generators_of_z12(),
    "sets": lambda f: [from_mask(bits) for bits in range(1, 4096)],
    # each set's mask, keyed by identity: hashing 4,095 sets would cost 5 ms
    "masks": lambda f: {id(s): bits for bits, s in enumerate(f.sets, 1)},
    "forms": _forms,
    "g": lambda f: genus(f.n),
    "chords": lambda f: all_chords(f.g),
    "cells": lambda f: symmetric_partition(f.n),
    "cat": lambda f: catalog(f.g),
    "slides": lambda f: [t for t in f.cat if t.kind in (Kind.ARTHROPOD_SLIDE, Kind.BRIDGE_SLIDE)],
    # each region kind on its own, so a fault in one kind's builder fails
    # only the claims that read that kind
    "arthropod": lambda f: arthropod_regions(f.g),
    "bridge": lambda f: bridge_regions(f.g),
    "pairs": lambda f: [(x, y) for x in f.chords for y in f.chords],
    "moves": lambda f: [(t, c) for t in f.cat for c in f.chords],
    "notes": lambda f: [(cell, note) for cell in f.cells for note in cell],
    "perturbations": lambda f: [(cell, note, d) for cell, note in f.notes for d in ("down", "up")],
    # Facts about the whole genus, read by every case: the 12/n cells hold
    # each pitch class once, the 24 chords have distinct pitch-class sets, and
    # each family of regions tiles the chords.
    "partitioned": lambda f: (
        len(f.cells) == 12 // f.n and sorted(p for cell in f.cells for p in cell) == list(range(12))
    ),
    "distinct": lambda f: len(f.chords) == 24 == len({c.pitch_classes() for c in f.chords}),
    "arthropod_tiled": lambda f: _tiles(f, f.arthropod),
    "bridge_tiled": lambda f: _tiles(f, f.bridge),
    "comp": lambda f: complementarity_pairs(f.g),
    "paired": lambda f: {token for pair in f.comp.pairs for token in pair},
    "matched": lambda f: (
        not f.comp.unpaired
        and f.paired <= {t.token for t in f.slides}
        and {3: ("S", "P"), 4: ("S3(4)", "S4"), 6: ("SA(3)", "S3(A)")}[f.n] in f.comp.pairs
    ),
    # hexatonic and octatonic unions are distinct transpositions; both
    # dodecatonic regions exhaust the chromatic, so theirs coincide
    "unions": lambda f: len({r.pitch_union for r in f.bridge}) == (1 if f.n == 6 else len(f.bridge)),
    # per bridge region, (cycle-counts failure, cycle-structure failure)
    "cycle_failures": lambda f: [_cycle_checks(r, adjacency(r)) for r in f.bridge],
}


def _generates(facts: _Facts, g: int) -> bool:
    unit = gcd(g, 12) == 1
    if not (g in facts.gens) == unit == (g in (1, 5, 7, 11)):
        return False
    if unit:
        return all(sorted(cycle_from_generator(g, start)) == list(range(12)) for start in range(12))
    try:
        cycle_from_generator(g)
    except ValueError:
        return True
    return False


# T_1 and I_0 generate every transposition/inversion, so invariance under
# those two implies invariance under all 24 operations.
def _invariant(facts: _Facts, s: PcSet) -> bool:
    bits = facts.masks[id(s)]
    t1 = (bits << 1 | bits >> 11) & 0xFFF
    rev = int(f"{bits:012b}"[::-1], 2)
    i0 = (rev << 1 | rev >> 11) & 0xFFF
    return facts.forms[bits] == facts.forms[t1] == facts.forms[i0]


def _opposite(members: Sequence[Chord], c: Chord) -> list[Chord]:
    return [m for m in members if m.modality is not c.modality]


def _in_universe(facts: _Facts, c: Chord) -> bool:
    s = c.pitch_classes()
    # exactly one semitone pair per hexachord, rooted on its lower note
    semitones = facts.n != 6 or [p for p in s if (p + 1) % 12 in s] == [c.root]
    return facts.distinct and len(s) == facts.n and semitones


def _round_trip(facts: _Facts, case: Any) -> bool:
    if isinstance(case, Chord):
        return perturb(*parent_symmetric_cell(case)) == case
    c = perturb(*case)
    cell, note, direction = parent_symmetric_cell(c)
    return (cell, note, direction.value) == case and (c.modality is Modality.PLUS) == (case[2] == "down")


def _inversional(facts: _Facts, case: tuple[PcSet, int]) -> bool:
    down, up = (perturb(*case, d).pitch_classes() for d in ("down", "up"))
    return any(invert(down, axis) == up for axis in range(12))


def _in_region(facts: _Facts, case: tuple[Region, Chord]) -> bool:
    r, m = case
    balanced = sum(x.modality is Modality.PLUS for x in r.members) == facts.n
    return len(r.members) == 2 * facts.n and balanced and m in region_of(m, r.kind).members


def _arthropod_counts(facts: _Facts, case: tuple[Region, Chord]) -> bool:
    r, c = case
    relations = [vl_relation(c, m) for m in _opposite(r.members, c)]
    return relations.count(VoiceLeading(0, 1)) == 1 and relations.count(VoiceLeading(2, 0)) == facts.n - 1


def _bridge_counts(facts: _Facts, case: tuple[Region, Chord]) -> bool:
    r, c = case
    slid = sum(vl_relation(c, m) == VoiceLeading(facts.n - 2, 0) for m in _opposite(r.members, c))
    poles = sum(not (c.pitch_classes() & m.pitch_classes()) for m in _opposite(r.members, c))
    return slid == facts.n - 1 and poles == 1


def _conforms(facts: _Facts, move: tuple[Transformation, Chord]) -> bool:
    t, c = move
    image = apply(t, c)
    disjoint = t.kind is not Kind.POLAR or not (c.pitch_classes() & image.pitch_classes())
    return vl_relation(c, image) == catalog_relation(t) and disjoint


def _covers(facts: _Facts, c: Chord) -> bool:
    images = [apply(t, c) for t in facts.cat]
    expected = set(_opposite(arthropod_members(c) + bridge_members(c), c))
    counted = len(images) == len(set(images)) == len(expected) == 2 * facts.n and set(images) == expected
    # transformation_between raises on an image two tokens reach, so it is asked last
    return counted and all(transformation_between(c, image) == t for t, image in zip(facts.cat, images))


# The case is a region, not a member: a region with no members still has
# edges to count.  Arthropod graphs have degree n and one relative edge
# per member, bridge graphs degree n-1; both have n * degree edges.
def _degrees(facts: _Facts, r: Region) -> bool:
    degree = facts.n - 1 if r.kind is RegionKind.BRIDGE else facts.n
    relatives = Counter(m for e in r.edges if e.transformation.kind is Kind.RELATIVE for m in {e.a, e.b})
    ones = r.kind is RegionKind.BRIDGE or all(relatives[m] == 1 for m in r.members)
    return len(r.edges) == facts.n * degree and ones and all(len(ns) == degree for ns in adjacency(r).values())


# Every bridge graph is the crown graph on n + n chords: K(n,n) across
# the modalities minus the perfect matching of polar pairs.  Each member
# has n opposite-modality members, degree n-1 and exactly one
# opposite-modality non-neighbour, so all its edges cross and the
# non-neighbours pair everyone off.  For n = 3 the crown graph is the
# hexagon C6, for n = 4 the cube Q3.
def _crown(facts: _Facts, case: tuple[Region, Chord]) -> bool:
    r, m = case
    across, neighbours = set(_opposite(r.members, m)), adjacency(r)[m]
    return len(across) == facts.n and len(neighbours) == facts.n - 1 and len(across - neighbours) == 1


def _polar_pair(facts: _Facts, c: Chord) -> bool:
    p = polar(c)
    others = _opposite(bridge_members(c), c)
    return [m for m in others if not (m.pitch_classes() & c.pitch_classes())] == [p] and polar(p) == c


# The claims in report order: name, scope ("z12" for Z12 and every
# pitch-class set, "genus" for each genus), cases(facts), and the predicate
# holds(facts, case) each case must satisfy.
_CLAIMS: list[tuple[str, str, Callable[[_Facts], Sequence[Any]], Callable[[_Facts, Any], bool]]] = [
    ("z12-generators", "z12", lambda f: [*range(12), *sorted(f.gens - set(range(12)))], _generates),
    ("prime-form-invariance", "z12", lambda f: f.sets, _invariant),
    ("forte-table", "z12", lambda f: list(FORTE_NAMES), lambda f, p: prime_form(p) == p),
    (
        "partition-structure", "genus", lambda f: f.cells,
        lambda f, cell: f.partitioned and len(cell) == f.n and transpose(cell, 12 // f.n) == cell,
    ),
    ("chord-universe", "genus", lambda f: f.chords, _in_universe),
    ("perturbation-roundtrip", "genus", lambda f: [*f.perturbations, *f.chords], _round_trip),
    ("inversional-pairing", "genus", lambda f: f.notes, _inversional),
    ("vl-identity", "genus", lambda f: f.chords, lambda f, c: vl_relation(c, c) == VoiceLeading(0, 0)),
    ("vl-symmetry", "genus", lambda f: f.pairs, lambda f, p: vl_relation(*p) == vl_relation(p[1], p[0])),
    ("vl-oracle-agreement", "genus", lambda f: f.pairs, lambda f, p: vl_relation(*p) == _naive_vl(*p)),
    (
        "arthropod-partition", "genus", lambda f: _members(f.arthropod),
        lambda f, case: f.arthropod_tiled and _in_region(f, case),
    ),
    (
        "bridge-partition", "genus", lambda f: _members(f.bridge),
        lambda f, case: f.bridge_tiled and _in_region(f, case),
    ),
    ("arthropod-counting", "genus", lambda f: _members(f.arthropod), _arthropod_counts),
    ("bridge-counting", "genus", lambda f: _members(f.bridge), _bridge_counts),
    ("involution", "genus", lambda f: f.moves, lambda f, m: apply(m[0], apply(*m)) == m[1]),
    ("modality-swap", "genus", lambda f: f.moves, lambda f, m: apply(*m).modality is not m[1].modality),
    ("relation-conformance", "genus", lambda f: f.moves, _conforms),
    ("region-closure", "genus", lambda f: f.moves, lambda f, m: _same_region(*m, apply(*m))),
    (
        "slide-labels", "genus", lambda f: [(t, c) for t in f.slides for c in f.chords],
        lambda f, m: _slide_images(*m) == {apply(*m)},
    ),
    ("catalog-coverage", "genus", lambda f: f.chords, _covers),
    (
        "bridge-pitch-unions", "genus", lambda f: f.bridge,
        lambda f, r: f.unions and set_class(r.pitch_union).forte_name == EXPECTED_BRIDGE_SET_CLASSES[f.n],
    ),
    ("region-degrees", "genus", lambda f: [*f.arthropod, *f.bridge], _degrees),
    ("graph-shape", "genus", lambda f: _members(f.bridge), _crown),
    ("cycle-counts", "genus", lambda f: [c for c, _ in f.cycle_failures], lambda f, failure: not failure),
    ("cycle-structure", "genus", lambda f: [s for _, s in f.cycle_failures], lambda f, failure: not failure),
    ("complementarity", "genus", lambda f: f.slides, lambda f, t: f.matched and t.token in f.paired),
    ("polar-disjointness", "genus", lambda f: f.chords, _polar_pair),
]


def run_checks(genus_filter: int | None = None) -> list[CheckResult]:
    """Run every structural check, optionally restricted to one genus: each
    claim of ``_CLAIMS`` on each scope it covers, Z12 first, then genus by
    genus, over one facts object per scope.  A claim during which the
    library raises ``InvariantViolationError``, while building a table the
    claim reads or while testing a case, fails with the error's message;
    any other exception is a fault of ``verify`` and propagates."""
    scopes = [None, *GENERA] if genus_filter is None else [genus(genus_filter).n]
    results = []
    for n in scopes:
        facts = _Facts(n)  # dropped with its tables before the next scope's are built
        for name, scope, cases, holds in _CLAIMS:
            if scope != ("z12" if n is None else "genus"):
                continue
            try:
                culprit = _first_failure(facts, cases, holds)
            except InvariantViolationError as exc:  # a library fault, named by its message
                culprit = str(exc)
            # the goldens pin the detail cycle-counts reports when it passes
            passed = f"expected {EXPECTED_CYCLE_COUNTS[n]}" if name == "cycle-counts" else ""
            results.append(CheckResult(name, n, not culprit, culprit or passed))
    return results
