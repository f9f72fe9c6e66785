"""Executable verification of the library's structural claims.

Every check enumerates its claim directly over the full 24-chord universe of
a genus (or over all pitch-class sets, for the global checks) and reports
pass or fail.  The voice-leading, slide-label and cycle checks compare the
library implementations to naive re-derivations kept deliberately separate
from the code paths they confirm; slide-labels re-derives the catalog's root
offsets from the partition-and-shift definition of each slide.

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

graph-shape checks one rule for every genus: each bridge graph is the crown
graph, K(n,n) minus a perfect matching, with the two modalities as its sides
(the missing matching is the polar pairs, which share no pitch class).  The
crown graph on 3 + 3 vertices is the hexagon C6 and on 4 + 4 the cube Q3, so
the rule covers the hexatonic and octatonic shapes too.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .chord import (
    Chord,
    Modality,
    all_chords,
    find_chord,
    genus,
    parent_symmetric_cell,
    perturb,
)
from .pcset import (
    CHROMATIC,
    FORTE_NAMES,
    interval_class_vector,
    invert,
    prime_form,
    set_class,
    transpose,
)
from .region import (
    Region,
    RegionKind,
    adjacency,
    arthropod_regions,
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
    relatives and arthropod slides, its bridge region otherwise."""
    arthropod = t.kind in (Kind.RELATIVE, Kind.ARTHROPOD_SLIDE)
    kind = RegionKind.ARTHROPOD if arthropod else RegionKind.BRIDGE
    return region_of(image, kind) == region_of(c, kind)


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


def _cycle_checks(r: Region) -> tuple[str, str]:
    """(cycle-counts failure, cycle-structure failure) for one bridge region,
    from one call of ``smooth_cycle_ids``; the region module keeps the last
    walk, so the next region of the genus, which has the same graph, reads
    the same cycles.  Each is "" when its claim holds; else the first names
    the region and the counts it found, the second the first offending cycle
    and the rule it breaks."""
    chords, cycles = smooth_cycle_ids(r)
    found = dict(sorted(Counter(map(len, cycles)).items()))
    expected = EXPECTED_CYCLE_COUNTS[r.genus.n]
    counts = "" if found == expected else f"{r.family} region {r.id}: found {found}, expected {expected}"
    return counts, _cycle_structure(r, chords, cycles)


def _cycle_structure(
    r: Region, chords: tuple[Chord, ...], cycles: tuple[tuple[int, ...], ...]
) -> str:
    """The cycles are id tuples indexing chords, which must be r's members.
    Every cycle has at least 4 ids and visits distinct members along r's
    edges, closing hop included, alternating modality; every full-length
    cycle covers r's pitch union, and there is one.  Each cycle is read from
    its smallest id toward the smaller of that id's two cycle neighbours, and
    follows the cycle before it in (length, ids) order, so no cycle is listed
    twice.  Each id has one mask of its opposite-modality neighbours, a
    modality flag and a pitch-class mask."""
    if len(chords) != len(r.members) or set(chords) != set(r.members):
        return f"{r.family} region {r.id}: the cycle ids do not number its members"
    ids = {c: i for i, c in enumerate(chords)}
    adj = adjacency(r)
    across = [_mask(ids[o] for o in adj[c] if o.modality is not c.modality) for c in chords]
    plus = [c.modality is Modality.PLUS for c in chords]
    pitches = [_mask(c.pitch_classes()) for c in chords]
    union = _mask(r.pitch_union)
    full = 2 * r.genus.n
    any_full = False
    last: tuple = ()
    for ring in cycles:
        if len(ring) < 4:
            return _culprit(chords, ring, "it has fewer than 4 chords")
        seen = 0
        prev = ring[-1]
        for v in ring:
            bit = 1 << v
            if seen & bit:
                return _culprit(chords, ring, f"{chords[v]} repeats")
            if not across[prev] & bit:
                rule = "keeps the modality" if plus[prev] == plus[v] else "is not an edge"
                return _culprit(chords, ring, f"{chords[prev]} -> {chords[v]} {rule}")
            seen |= bit
            prev = v
        if seen & ((1 << ring[0]) - 1) or not ring[1] < ring[-1]:
            rule = "it is not read from its smallest chord toward the smaller neighbour"
            return _culprit(chords, ring, rule)
        key = (len(ring), ring)
        if key <= last:
            rule = "it does not follow the cycle before it in (length, chords) order"
            return _culprit(chords, ring, rule)
        last = key
        if len(ring) == full:
            covered = 0
            for v in ring:
                covered |= pitches[v]
            if covered != union:
                return _culprit(chords, ring, "it misses part of the region's pitch union")
            any_full = True
    return "" if any_full else f"{r.family} region {r.id} has no cycle of length {full}"


def _mask(bits: Iterable[int]) -> int:
    return sum(1 << b for b in bits)


def _members(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(12) if mask >> i & 1)


def _culprit(chords: tuple[Chord, ...], ring: tuple[int, ...], rule: str) -> str:
    return f"cycle {' '.join(chords[v].name() for v in ring) or '()'}: {rule}"


def _global_checks(results: list[CheckResult]) -> None:
    gens = generators_of_z12()
    ok = gens == {g for g in range(1, 12) if gcd(g, 12) == 1} == {1, 5, 7, 11}
    for g in gens:
        for start in range(12):
            ok = ok and sorted(cycle_from_generator(g, start)) == list(range(12))
    for g in (0, 2, 3, 4, 6, 8, 9, 10):
        try:
            cycle_from_generator(g)
            ok = False
        except ValueError:
            pass
    results.append(CheckResult("z12-generators", None, ok))

    # T_1 and I_0 generate every transposition/inversion, so invariance under
    # those two implies invariance under all 24 operations.  The table holds
    # each set's (prime form, interval-class vector) at its mask, as the
    # module docstring explains.  Equal entries are shared: there are 223
    # distinct ones, so it holds about 70 KB where unshared entries took 970.
    table: list[tuple | None] = [None] * 4096
    shared: dict[tuple, tuple] = {}
    for bits in range(1, 4096):
        s = _members(bits)
        entry = (prime_form(s), interval_class_vector(s))
        table[bits] = shared.setdefault(entry, entry)
    for bits in range(1, 4096):
        t1 = (bits << 1 | bits >> 11) & 0xFFF
        rev = int(f"{bits:012b}"[::-1], 2)
        i0 = (rev << 1 | rev >> 11) & 0xFFF
        ok = table[bits] == table[t1] == table[i0]
        if not ok:
            break
    results.append(CheckResult("prime-form-invariance", None, ok))

    ok = all(prime_form(p) == p for p in FORTE_NAMES)
    results.append(CheckResult("forte-table", None, ok))


def _genus_checks(n: int, results: list[CheckResult]) -> None:
    g = genus(n)
    chords = all_chords(g)
    cells = symmetric_partition(n)

    def add(name: str, passed: bool, detail: str = "") -> None:
        results.append(CheckResult(name, n, passed, detail))

    step = 12 // n
    ok = len(cells) == step
    union: frozenset[int] = frozenset()
    for cell in cells:
        ok = ok and len(cell) == n and transpose(cell, step) == cell
        ok = ok and not (union & cell)
        union |= cell
    add("partition-structure", ok and union == CHROMATIC)

    pcs_sets = {c.pitch_classes() for c in chords}
    ok = len(chords) == 24 and len(pcs_sets) == 24
    ok = ok and all(len(s) == n for s in pcs_sets)
    if n == 6:
        # exactly one semitone pair per chord, rooted on its lower note
        for c in chords:
            s = c.pitch_classes()
            dyads = [p for p in s if (p + 1) % 12 in s]
            ok = ok and dyads == [c.root]
    add("chord-universe", ok)

    ok = True
    for cell in cells:
        for note in cell:
            for direction in ("down", "up"):
                c = perturb(cell, note, direction)
                parent = parent_symmetric_cell(c)
                ok = ok and parent.cell == cell and parent.note == note
                ok = ok and parent.direction.value == direction
                ok = ok and (c.modality is Modality.PLUS) == (direction == "down")
    ok = ok and all(perturb(*parent_symmetric_cell(c)) == c for c in chords)
    add("perturbation-roundtrip", ok)

    ok = True
    for cell in cells:
        for note in cell:
            down = perturb(cell, note, "down").pitch_classes()
            up = perturb(cell, note, "up").pitch_classes()
            ok = ok and any(invert(down, axis) == up for axis in range(12))
    add("inversional-pairing", ok)

    add("vl-identity", all(vl_relation(c, c) == VoiceLeading(0, 0) for c in chords))
    add(
        "vl-symmetry",
        all(vl_relation(x, y) == vl_relation(y, x) for x in chords for y in chords),
    )
    add(
        "vl-oracle-agreement",
        all(vl_relation(x, y) == _naive_vl(x, y) for x in chords for y in chords),
    )

    for kind, builder in ((RegionKind.ARTHROPOD, arthropod_regions), (RegionKind.BRIDGE, bridge_regions)):
        regions = builder(g)
        ok = len(regions) == EXPECTED_REGION_COUNTS[n]
        seen: set[Chord] = set()
        for r in regions:
            ok = ok and len(r.members) == 2 * n and not (seen & set(r.members))
            ok = ok and sum(m.modality is Modality.PLUS for m in r.members) == n
            seen |= set(r.members)
        ok = ok and seen == set(chords)
        ok = ok and all(c in region_of(c, kind).members for c in chords)
        add(f"{kind.value}-partition", ok)

    ok = True
    for r in arthropod_regions(g):
        for c in r.members:
            others = [m for m in r.members if m.modality is not c.modality]
            relations = [vl_relation(c, m) for m in others]
            ok = ok and relations.count(VoiceLeading(0, 1)) == 1
            ok = ok and relations.count(VoiceLeading(2, 0)) == n - 1
    add("arthropod-counting", ok)

    ok = True
    for r in bridge_regions(g):
        for c in r.members:
            others = [m for m in r.members if m.modality is not c.modality]
            slides = sum(vl_relation(c, m) == VoiceLeading(n - 2, 0) for m in others)
            poles = sum(not (c.pitch_classes() & m.pitch_classes()) for m in others)
            ok = ok and slides == n - 1 and poles == 1
    add("bridge-counting", ok)

    cat = catalog(g)
    add("involution", all(apply(t, apply(t, c)) == c for t in cat for c in chords))
    add("modality-swap", all(apply(t, c).modality is not c.modality for t in cat for c in chords))

    ok = True
    for t in cat:
        for c in chords:
            image = apply(t, c)
            ok = ok and vl_relation(c, image) == catalog_relation(t)
            if t.kind is Kind.POLAR:
                ok = ok and not (c.pitch_classes() & image.pitch_classes())
    add("relation-conformance", ok)

    ok = True
    for t in cat:
        for c in chords:
            ok = ok and _same_region(t, c, apply(t, c))
    add("region-closure", ok)

    ok = True
    for t in cat:
        if t.kind not in (Kind.ARTHROPOD_SLIDE, Kind.BRIDGE_SLIDE):
            continue
        for c in chords:
            ok = ok and _slide_images(t, c) == {apply(t, c)}
    add("slide-labels", ok)

    ok = True
    for c in chords:
        images = [apply(t, c) for t in cat]
        expected = {
            m
            for r in (region_of(c, RegionKind.ARTHROPOD), region_of(c, RegionKind.BRIDGE))
            for m in r.members
            if m.modality is not c.modality
        }
        ok = ok and len(images) == len(set(images)) == len(expected) == 2 * n
        ok = ok and set(images) == expected
        ok = ok and all(transformation_between(c, img) == t for t, img in zip(cat, images))
    add("catalog-coverage", ok)

    unions = [set_class(r.pitch_union) for r in bridge_regions(g)]
    ok = all(sc.forte_name == EXPECTED_BRIDGE_SET_CLASSES[n] for sc in unions)
    # hexatonic and octatonic unions are distinct transpositions; both
    # dodecatonic regions exhaust the chromatic, so theirs coincide
    distinct = len({tuple(sorted(r.pitch_union)) for r in bridge_regions(g)})
    ok = ok and distinct == (1 if n == 6 else len(unions))
    add("bridge-pitch-unions", ok)

    ok = True
    for r in arthropod_regions(g):
        adj = adjacency(r)
        ok = ok and len(r.edges) == n * n
        ok = ok and all(len(adj[m]) == n for m in r.members)
        for m in r.members:
            relative_edges = sum(
                e.transformation.kind is Kind.RELATIVE for e in r.edges if m in (e.a, e.b)
            )
            ok = ok and relative_edges == 1
    for r in bridge_regions(g):
        adj = adjacency(r)
        ok = ok and len(r.edges) == n * n - n
        ok = ok and all(len(adj[m]) == n - 1 for m in r.members)
    add("region-degrees", ok)

    # Every bridge graph is the crown graph on n + n chords: K(n,n) across
    # the modalities minus the perfect matching of polar pairs.  Each member
    # has n opposite-modality members, degree n-1 and exactly one
    # opposite-modality non-neighbour, so all its edges cross and the
    # non-neighbours pair everyone off.  For n = 3 the crown graph is the
    # hexagon C6, for n = 4 the cube Q3.
    ok = True
    for r in bridge_regions(g):
        adj = adjacency(r)
        for m in r.members:
            across = {o for o in r.members if o.modality is not m.modality}
            ok = ok and len(across) == n and len(adj[m]) == n - 1 and len(across - adj[m]) == 1
    add("graph-shape", ok)

    cycle_results = [_cycle_checks(r) for r in bridge_regions(g)]
    counts, structure = (next(filter(None, failures), "") for failures in zip(*cycle_results))
    add("cycle-counts", not counts, counts or f"expected {EXPECTED_CYCLE_COUNTS[n]}")
    add("cycle-structure", not structure, structure)

    comp = complementarity_pairs(g)
    slides = {t.token for t in cat if t.kind in (Kind.ARTHROPOD_SLIDE, Kind.BRIDGE_SLIDE)}
    ok = not comp.unpaired and {tok for pair in comp.pairs for tok in pair} == slides
    expected_pairs = {3: ("S", "P"), 4: ("S3(4)", "S4"), 6: ("SA(3)", "S3(A)")}[n]
    ok = ok and expected_pairs in comp.pairs
    add("complementarity", ok)

    ok = True
    for c in chords:
        p = polar(c)
        others = [m for m in region_of(c, RegionKind.BRIDGE).members if m.modality is not c.modality]
        ok = ok and [m for m in others if not (m.pitch_classes() & c.pitch_classes())] == [p]
        ok = ok and polar(p) == c
    add("polar-disjointness", ok)


def run_checks(genus_filter: int | None = None) -> list[CheckResult]:
    """Run every structural check, optionally restricted to one genus."""
    results: list[CheckResult] = []
    if genus_filter is None:
        _global_checks(results)
        for n in (3, 4, 6):
            _genus_checks(n, results)
    else:
        _genus_checks(genus(genus_filter).n, results)
    return results
