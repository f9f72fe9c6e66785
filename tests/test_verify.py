"""Tampered inputs fail the verify claims that should catch them, and each
FAIL line names the first case that breaks the claim.

The cycle-structure check fails on tampered enumerator ids and names the
offending cycle and the rule it breaks, a cycle listed twice or in another
reading, a cycle of no or two chords, and an id outside the region's chords
(named by its number) included; on honest ids it passes with an empty
detail.  Missing cycles fail cycle-counts, which names the
region and the counts it found.  A region lookup that answers with the wrong
region fails the partition checks, and a bridge graph with an edge too many,
or with two edges switched to same-modality pairs, fails graph-shape.  A
displaced-note offset one semitone off fails perturbation-roundtrip.  A
voice-leading relation wrong on one pair fails vl-oracle-agreement alone.  A
prime form that is not transposition-invariant on one set, one that ignores
inversion on every major triad, one wrong on a set that is its own
inversion, and an interval-class vector wrong on one set each fail
prime-form-invariance alone: between them they need the T1 comparison, the
I0 comparison and the interval-vector half of the check.  Every other check
has a tamper of its own at the ``verify`` namespace, with the exact FAIL
lines it gives.  A claim builds only the tables it reads, so the claims
before the first region-reading one run while no region can be built, and
one kind's partition claims pass while the other kind's builder refuses; and
each oracle helper runs over its whole domain with the functions it confirms
made to raise."""

import dataclasses
import sys
from functools import partial
from types import SimpleNamespace

import pytest

from nearsym import verify
from nearsym.chord import (
    _DISPLACED_NOTE,
    Direction,
    Modality,
    all_chords,
    genus,
    parent_symmetric_cell,
    parse_chord,
    perturb,
)
from nearsym.errors import InvariantViolationError
from nearsym.pcset import (
    FORTE_NAMES,
    SetClass,
    interval_class_vector,
    prime_form,
    set_class,
    transpose,
)
from nearsym.region import (
    Complementarity,
    RegionKind,
    adjacency,
    arthropod_regions,
    bridge_regions,
    complementarity_pairs,
    polar,
    region_of,
    smooth_cycle_ids,
)
from nearsym.symmetry import cycle_from_generator, symmetric_partition
from nearsym.transform import Kind, apply, catalog, transformation, transformation_between
from nearsym.voiceleading import VoiceLeading, catalog_relation, vl_relation

from conftest import clear_caches

K = 50  # a 4-cycle in the middle of the 90 four-chord cycles
TAMPER_NAMES = (
    "non-edge hop", "repeated chord", "same-modality neighbours", "no full-length cycle",
    "repeated cycle", "other reading", "other start", "empty cycle", "two-chord cycle",
    "outside id", "negative id",
)


def _names(*chords):
    return " ".join(ch.name() for ch in chords)


@pytest.fixture(scope="module")
def dodecatonic():
    """Dodecatonic region 0, its enumerated cycle ids, the K-th cycle's
    chords, and each tamper as tamper -> (enumerator ids, expected
    cycle-structure detail).  Built on first use, not at import, so a library
    that cannot build the region fails these tests by name."""
    region = bridge_regions(genus(6))[0]
    chords, cycles = smooth_cycle_ids(region)
    a, b, c, d = cycles[K]  # a, c share a modality; b, d the other
    A, B, C, D = (chords[v] for v in cycles[K])
    p = chords.index(polar(A))

    def replace_kth(*ids):
        return cycles[:K] + (ids,) + cycles[K + 1 :]

    tampers = {
        "non-edge hop": (
            replace_kth(a, p, c, d),
            f"cycle {_names(A, polar(A), C, D)}: {A} -> {polar(A)} is not an edge",
        ),
        "repeated chord": (
            replace_kth(a, b, a, d),
            f"cycle {_names(A, B, A, D)}: {A} repeats",
        ),
        "same-modality neighbours": (
            replace_kth(a, b, d, c),
            f"cycle {_names(A, B, D, C)}: {C} -> {A} keeps the modality",
        ),
        "no full-length cycle": (
            tuple(cyc for cyc in cycles if len(cyc) < 12),
            "dodecatonic region 0 has no cycle of length 12",
        ),
        "repeated cycle": (
            cycles[: K + 1] + (cycles[K],) + cycles[K + 2 :],
            f"cycle {_names(A, B, C, D)}: it does not follow the cycle before it"
            " in (length, chords) order",
        ),
        "other reading": (
            replace_kth(a, d, c, b),
            f"cycle {_names(A, D, C, B)}: it is not read from its smallest chord"
            " toward the smaller neighbour",
        ),
        "other start": (
            replace_kth(b, a, d, c),
            f"cycle {_names(B, A, D, C)}: it is not read from its smallest chord"
            " toward the smaller neighbour",
        ),
        "empty cycle": (
            replace_kth(),
            "cycle (): it has fewer than 4 chords",
        ),
        "two-chord cycle": (
            replace_kth(a, b),
            f"cycle {_names(A, B)}: it has fewer than 4 chords",
        ),
        "outside id": (
            replace_kth(a, b, c, len(chords)),
            f"cycle {_names(A, B, C)} 12: id 12 is outside 0..11",
        ),
        "negative id": (
            replace_kth(a, b, c, -1),
            f"cycle {_names(A, B, C)} -1: id -1 is outside 0..11",
        ),
    }
    assert tuple(tampers) == TAMPER_NAMES
    return SimpleNamespace(
        region=region, chords=chords, cycles=cycles, kth=(A, B, C, D), tampers=tampers
    )


def _enumerate_as(monkeypatch, dodecatonic, cycles):
    real = smooth_cycle_ids
    region, chords = dodecatonic.region, dodecatonic.chords
    monkeypatch.setattr(
        verify, "smooth_cycle_ids", lambda r: (chords, cycles) if r == region else real(r)
    )


def _cycle_checks(dodecatonic):
    return verify._cycle_checks(dodecatonic.region, adjacency(dodecatonic.region))


def _failed(n):
    return [r.line() for r in verify.run_checks(n) if not r.passed]


def _failed_globally(monkeypatch):
    # the genera are left out for time: run_checks reports the global claims
    monkeypatch.setattr(verify, "GENERA", ())
    return [r.line() for r in verify.run_checks() if not r.passed]


def test_cycle_structure_passes_on_the_enumerator_output(monkeypatch, dodecatonic):
    A, B, C, D = dodecatonic.kth
    assert len(dodecatonic.cycles[K]) == 4
    assert A.modality is C.modality is not B.modality is D.modality
    _enumerate_as(monkeypatch, dodecatonic, dodecatonic.cycles)
    assert _cycle_checks(dodecatonic) == ("", "")


@pytest.mark.parametrize("tamper", TAMPER_NAMES)
def test_cycle_structure_names_the_tampered_cycle(monkeypatch, dodecatonic, tamper):
    cycles, detail = dodecatonic.tampers[tamper]
    _enumerate_as(monkeypatch, dodecatonic, cycles)
    assert _cycle_checks(dodecatonic)[1] == detail


def test_a_tampered_region_fails_only_its_claims_in_the_report(monkeypatch, dodecatonic):
    cycles, detail = dodecatonic.tampers["non-edge hop"]
    _enumerate_as(monkeypatch, dodecatonic, cycles)
    assert _failed(6) == [f"FAIL cycle-structure [n=6]: {detail}"]


def test_missing_cycles_fail_cycle_counts_naming_the_region_and_its_counts(
    monkeypatch, dodecatonic
):
    cycles, _ = dodecatonic.tampers["no full-length cycle"]
    _enumerate_as(monkeypatch, dodecatonic, cycles)
    expected = verify.EXPECTED_CYCLE_COUNTS[6]
    found = {length: count for length, count in expected.items() if length < 12}
    detail = f"dodecatonic region 0: found {found}, expected {expected}"
    assert f"FAIL cycle-counts [n=6]: {detail}" in _failed(6)


def test_ids_that_do_not_number_the_region_fail_cycle_structure(monkeypatch, dodecatonic):
    outsider = bridge_regions(genus(6))[1].members[0]
    chords = (outsider,) + dodecatonic.chords[1:]
    monkeypatch.setattr(verify, "smooth_cycle_ids", lambda r: (chords, dodecatonic.cycles))
    detail = "dodecatonic region 0: the cycle ids do not number its members"
    assert _cycle_checks(dodecatonic) == ("", detail)


def test_a_region_lookup_one_region_off_fails_both_partitions(monkeypatch):
    g = genus(4)
    c_plus = parse_chord("C+", g)
    real = region_of

    def shifted(chord, kind):
        if chord != c_plus:
            return real(chord, kind)
        regions = arthropod_regions(g) if kind is RegionKind.ARTHROPOD else bridge_regions(g)
        return regions[(regions.index(real(chord, kind)) + 1) % len(regions)]

    monkeypatch.setattr(verify, "region_of", shifted)
    failed = _failed(4)
    assert "FAIL arthropod-partition [n=4]: (spider region 1, C+)" in failed
    assert "FAIL bridge-partition [n=4]: (octatonic region 0, C+)" in failed


def _link(adj, x, y):
    adj[x].add(y)
    adj[y].add(x)


def _unlink(adj, x, y):
    adj[x].remove(y)
    adj[y].remove(x)


def _polar_edge(adj, x):
    _link(adj, x, polar(x))


def _same_modality_edge(adj, x):
    _link(adj, x, next(m for m in adj if m != x and m.modality is x.modality))


def _two_edges_switched(adj, x):
    # x-y and u-v become x-u and y-v: every degree stays n-1, but two edges
    # keep the modality and x has two opposite-modality non-neighbours
    y = min(adj[x], key=lambda m: m.sort_key)
    u = next(m for m in adj if m != x and m.modality is x.modality)
    v = min((m for m in adj[u] if m != y), key=lambda m: m.sort_key)
    _unlink(adj, x, y)
    _unlink(adj, u, v)
    _link(adj, x, u)
    _link(adj, y, v)


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("tamper", [_polar_edge, _same_modality_edge, _two_edges_switched])
def test_a_tampered_bridge_graph_fails_graph_shape(monkeypatch, n, tamper):
    region = bridge_regions(genus(n))[0]
    real = verify.adjacency

    def adjacency(r):
        adj = real(r)
        if r == region:
            tamper(adj, r.members[0])
        return adj

    monkeypatch.setattr(verify, "adjacency", adjacency)
    failed = _failed(n)
    shape = f"FAIL graph-shape [n={n}]: ({region.family} region 0, C+)"
    if tamper is _two_edges_switched:
        # every degree holds; the cycles, walked on the region's own graph,
        # cross the removed edge C+ - C-
        assert len(failed) == 2 and failed[0] == shape
        assert failed[1].startswith(f"FAIL cycle-structure [n={n}]: cycle C+ C- ")
        assert failed[1].endswith(": C+ -> C- is not an edge")
    else:
        assert failed == [f"FAIL region-degrees [n={n}]: {region.family} region 0", shape]


@pytest.mark.parametrize("entry", list(_DISPLACED_NOTE), ids=lambda entry: f"{entry[0]}{entry[1]}")
def test_a_displaced_note_one_semitone_off_fails_the_roundtrip(
    monkeypatch, fresh_caches, entry
):
    monkeypatch.setitem(_DISPLACED_NOTE, entry, _DISPLACED_NOTE[entry] + 1)
    n, modality = entry
    # the first perturbation of C's cell in that modality no longer round-trips
    cell = ", ".join(map(str, range(0, 12, 12 // n)))
    direction = "down" if modality is Modality.PLUS else "up"
    assert f"FAIL perturbation-roundtrip [n={n}]: ({{{cell}}}, 0, {direction})" in _failed(n)


def test_a_relation_wrong_on_one_pair_fails_only_the_oracle_agreement(monkeypatch):
    # wrong both ways round, so vl-symmetry still holds; C+ and D+ share a
    # modality, so no counting or conformance check reads the pair
    g = genus(6)
    pair = {parse_chord("C+", g), parse_chord("D+", g)}
    assert vl_relation(*pair) == VoiceLeading(2, 0)
    monkeypatch.setattr(
        verify,
        "vl_relation",
        lambda x, y: VoiceLeading(0, 1) if {x, y} == pair else vl_relation(x, y),
    )
    assert _failed(6) == ["FAIL vl-oracle-agreement [n=6]: (C+, D+)"]


def test_a_prime_form_not_transposition_invariant_fails_the_invariance_check(monkeypatch):
    # C major's transposition up a semitone answers with the major triad
    # unreduced; no Forte prime form is that set, so forte-table still holds
    monkeypatch.setattr(
        verify,
        "prime_form",
        lambda s: (0, 4, 7) if set(s) == {1, 5, 8} else prime_form(s),
    )
    # C major is the first set whose T1 image is {1, 5, 8}
    assert _failed_globally(monkeypatch) == ["FAIL prime-form-invariance: {0, 4, 7}"]


def test_a_prime_form_that_ignores_inversion_fails_the_invariance_check(monkeypatch):
    # every major triad answers its own form, unreduced by inversion: the
    # answer is transposition-invariant, but the minor triads answer (0, 3, 7)
    majors = {transpose({0, 4, 7}, t) for t in range(12)}
    monkeypatch.setattr(
        verify,
        "prime_form",
        lambda s: (0, 4, 7) if frozenset(s) in majors else prime_form(s),
    )
    # C minor is the first set whose I0 image, F major, is a major triad
    assert _failed_globally(monkeypatch) == ["FAIL prime-form-invariance: {0, 3, 7}"]


def test_an_interval_vector_wrong_on_one_set_fails_the_invariance_check(monkeypatch):
    assert interval_class_vector({0, 4, 7}) == (0, 0, 1, 1, 1, 0)
    monkeypatch.setattr(
        verify,
        "interval_class_vector",
        lambda s: (0, 0, 0, 1, 1, 1) if set(s) == {0, 4, 7} else interval_class_vector(s),
    )
    assert _failed_globally(monkeypatch) == ["FAIL prime-form-invariance: {0, 4, 7}"]


def test_a_prime_form_wrong_on_one_inversion_symmetric_set_fails_the_invariance_check(
    monkeypatch,
):
    # {1, 11} is its own inversion, so only its transpositions can expose the
    # unreduced answer; no Forte prime form is that set
    assert prime_form({1, 11}) == (0, 2)
    monkeypatch.setattr(
        verify, "prime_form", lambda s: (0, 10) if set(s) == {1, 11} else prime_form(s)
    )
    # {0, 10} is the first set whose T1 image is {1, 11}
    assert _failed_globally(monkeypatch) == ["FAIL prime-form-invariance: {0, 10}"]


def _with_members(r, members):
    """Region r with these members and its edges between them."""
    edges = tuple(e for e in r.edges if {e.a, e.b} <= set(members))
    return dataclasses.replace(r, members=members, edges=edges)


def _arthropod_regions_traded(trade):
    """The arthropod regions with the members of regions 0 and 1 replaced by
    trade(members of 0, members of 1)."""

    def regions(g):
        first, second, *rest = arthropod_regions(g)
        traded = trade(first.members, second.members)
        return (*map(_with_members, (first, second), traded), *rest)

    return regions


def _swap_a_plus_for_a_minus(first, second):
    # sizes and the tiling hold, but neither region has n chords of each modality
    plus = next(m for m in first if m.modality is Modality.PLUS)
    minus = next(m for m in second if m.modality is Modality.MINUS)
    trade = {plus: minus, minus: plus}
    return tuple(trade.get(m, m) for m in first), tuple(trade.get(m, m) for m in second)


def _move_two_minus_chords(first, second):
    # region 0 keeps its n (+) chords but has 2n - 2 members; the tiling holds
    moved = [m for m in first if m.modality is Modality.MINUS][:2]
    return tuple(m for m in first if m not in moved), second + tuple(moved)


def _region_changed(builder, index, change):
    """builder's regions with region `index` replaced by change(regions, region)."""

    def regions(g):
        rs = list(builder(g))
        rs[index] = change(rs, rs[index])
        return tuple(rs)

    return regions


def _relative_edge_relabelled(regions, r):
    # the first relative edge carries the first arthropod slide's label
    slide = next(e.transformation for e in r.edges if e.transformation.kind is Kind.ARTHROPOD_SLIDE)
    first = next(i for i, e in enumerate(r.edges) if e.transformation.kind is Kind.RELATIVE)
    edges = list(r.edges)
    edges[first] = edges[first]._replace(transformation=slide)
    return dataclasses.replace(r, edges=tuple(edges))


def _slide_edge_doubled(regions, r):
    slide = next(e for e in r.edges if e.transformation.kind is not Kind.RELATIVE)
    return dataclasses.replace(r, edges=r.edges + (slide,))


def _without(name):
    """A region change dropping the chord named `name` and its edges."""

    def change(regions, r):
        return _with_members(r, tuple(m for m in r.members if m.name() != name))

    return change


def _bridge_adjacency_linking(a, b):
    """adjacency with the chords named `a` and `b` linked in their bridge region."""

    def tampered(r):
        adj = adjacency(r)
        if r.kind is RegionKind.BRIDGE:
            x, y = (next((m for m in adj if m.name() == name), None) for name in (a, b))
            if x and y:
                _link(adj, x, y)
        return adj

    return tampered


def _complementarity_as(change):
    return lambda g: change(complementarity_pairs(g))


def _wrong_on(names, answer):
    """vl_relation answering `answer` on the pairs whose chord names are `names`."""
    return lambda x, y: answer if (x.name(), y.name()) in names else vl_relation(x, y)


def _polar_as(names):
    """polar sending the chords named in `names` where it says."""
    return lambda c: parse_chord(names[c.name()], c.genus) if c.name() in names else polar(c)


def _flipped(direction):
    return {"down": "up", "up": "down"}[Direction(direction).value]


_same_region = verify._same_region

# (verify attributes and their replacements, genus or None for the global
# checks, the exact FAIL lines): each check has at least one, and each
# conjunct of a check that another one does not already make fail
CHECK_TAMPERS = [
    pytest.param(
        {"generators_of_z12": lambda: {1, 5, 7}}, None,
        ["FAIL z12-generators: 11"], id="z12-generators",
    ),
    pytest.param(
        # 5's walk stays on its start
        {"cycle_from_generator": lambda g, s=0: (s,) * 12 if g == 5 else cycle_from_generator(g, s)},
        None, ["FAIL z12-generators: 5"], id="z12-unit-cycles",
    ),
    pytest.param(
        {"cycle_from_generator": lambda g, start=0: () if g == 2 else cycle_from_generator(g, start)},
        None, ["FAIL z12-generators: 2"], id="z12-refusal",
    ),
    pytest.param(
        {"FORTE_NAMES": {**FORTE_NAMES, (0, 4, 7): "3-11"}}, None,
        ["FAIL forte-table: (0, 4, 7)"], id="forte-table",
    ),
    pytest.param(
        {"symmetric_partition": lambda n: (*symmetric_partition(n)[:-1], symmetric_partition(n)[0])}, 3,
        ["FAIL partition-structure [n=3]: {0, 4, 8}"], id="partition-structure",
    ),
    pytest.param(
        # an empty domain fails by name instead of holding vacuously
        {"symmetric_partition": lambda n: ()}, 3,
        ["FAIL partition-structure [n=3]: no cases", "FAIL inversional-pairing [n=3]: no cases"],
        id="no-cases",
    ),
    pytest.param(
        {"all_chords": lambda g: all_chords(g) + all_chords(g)[:1]}, 3,
        ["FAIL chord-universe [n=3]: C+"], id="chord-universe",
    ),
    pytest.param(
        # perturb goes the other way when handed a Direction, as
        # parent_symmetric_cell gives it: only the chords' round trip breaks
        {"perturb": lambda cell, note, d: perturb(cell, note, d if isinstance(d, str) else _flipped(d))},
        3, ["FAIL perturbation-roundtrip [n=3]: C+"], id="roundtrip-chords",
    ),
    pytest.param(
        # both directions swapped: every round trip holds, but "down" gives a (-) chord
        {
            "perturb": lambda cell, note, d: perturb(cell, note, _flipped(d)),
            "parent_symmetric_cell": lambda c: parent_symmetric_cell(c)._replace(
                direction=Direction(_flipped(parent_symmetric_cell(c).direction))
            ),
        },
        3, ["FAIL perturbation-roundtrip [n=3]: ({0, 4, 8}, 0, down)"], id="roundtrip-modality",
    ),
    pytest.param(
        {"invert": lambda s, axis=0: frozenset(s)}, 3,
        ["FAIL inversional-pairing [n=3]: ({0, 4, 8}, 0)"], id="inversional-pairing",
    ),
    pytest.param(
        {"vl_relation": _wrong_on({("C+", "C+")}, VoiceLeading(0, 1))}, 3,
        ["FAIL vl-identity [n=3]: C+", "FAIL vl-oracle-agreement [n=3]: (C+, C+)"],
        id="vl-identity",
    ),
    pytest.param(
        {"vl_relation": _wrong_on({("C+", "D+")}, VoiceLeading(0, 1))}, 3,
        ["FAIL vl-symmetry [n=3]: (C+, D+)", "FAIL vl-oracle-agreement [n=3]: (C+, D+)"],
        id="vl-symmetry",
    ),
    pytest.param(
        {"arthropod_regions": _arthropod_regions_traded(_swap_a_plus_for_a_minus)}, 3,
        [
            "FAIL arthropod-partition [n=3]: (waterbug region 0, D-)",
            "FAIL arthropod-counting [n=3]: (waterbug region 0, D-)",
            "FAIL region-degrees [n=3]: waterbug region 0",
        ],
        id="partition-modality-balance",
    ),
    pytest.param(
        {"arthropod_regions": _arthropod_regions_traded(_move_two_minus_chords)}, 3,
        [
            "FAIL arthropod-partition [n=3]: (waterbug region 0, E+)",
            "FAIL arthropod-counting [n=3]: (waterbug region 0, E+)",
            "FAIL region-degrees [n=3]: waterbug region 0",
        ],
        id="partition-region-size",
    ),
    pytest.param(
        {"arthropod_regions": lambda g: arthropod_regions(g) + arthropod_regions(g)[:1]}, 3,
        ["FAIL arthropod-partition [n=3]: (waterbug region 0, E+)"], id="partition-tiling",
    ),
    pytest.param(
        # a fifth region, with no members and no edges: every chord is still
        # listed once
        {
            "arthropod_regions": lambda g: arthropod_regions(g)
            + (dataclasses.replace(arthropod_regions(g)[0], id=4, members=(), edges=()),)
        },
        3,
        [
            "FAIL arthropod-partition [n=3]: (waterbug region 0, E+)",
            "FAIL region-degrees [n=3]: waterbug region 4",
        ],
        id="partition-region-count",
    ),
    pytest.param(
        # C+ - E+ is the lone across-modality member C+ lacks without E-,
        # an edge that keeps the modality restores its degree: only the
        # count of opposite-modality members tells graph-shape
        {
            "bridge_regions": _region_changed(bridge_regions, 0, _without("E-")),
            "adjacency": _bridge_adjacency_linking("C+", "E+"),
        },
        3,
        [
            "FAIL bridge-partition [n=3]: (hexatonic region 0, C+)",
            "FAIL bridge-counting [n=3]: (hexatonic region 0, C+)",
            "FAIL region-degrees [n=3]: hexatonic region 0",
            "FAIL graph-shape [n=3]: (hexatonic region 0, C+)",
            "FAIL cycle-counts [n=3]: hexatonic region 0: found {}, expected {6: 1}",
            "FAIL cycle-structure [n=3]: hexatonic region 0 has no cycle of length 6",
        ],
        id="graph-shape-opposite-members",
    ),
    pytest.param(
        # C+ and A- are relatives: P0,1 read as P1,0
        {"vl_relation": _wrong_on({("C+", "A-"), ("A-", "C+")}, VoiceLeading(1, 0))}, 3,
        [
            "FAIL vl-oracle-agreement [n=3]: (C+, A-)",
            "FAIL arthropod-counting [n=3]: (waterbug region 0, C+)",
            "FAIL relation-conformance [n=3]: (R, C+)",
        ],
        id="arthropod-counting-relative",
    ),
    pytest.param(
        # C+ and C#- are S-related: P2,0 read as P1,0
        {"vl_relation": _wrong_on({("C+", "C#-"), ("C#-", "C+")}, VoiceLeading(1, 0))}, 3,
        [
            "FAIL vl-oracle-agreement [n=3]: (C+, C#-)",
            "FAIL arthropod-counting [n=3]: (waterbug region 0, C#-)",
            "FAIL relation-conformance [n=3]: (S, C+)",
        ],
        id="arthropod-counting-slides",
    ),
    pytest.param(
        # C+ and C- are P-related: the bridge slide's P1,0 read as P0,1
        {"vl_relation": _wrong_on({("C+", "C-"), ("C-", "C+")}, VoiceLeading(0, 1))}, 3,
        [
            "FAIL vl-oracle-agreement [n=3]: (C+, C-)",
            "FAIL bridge-counting [n=3]: (hexatonic region 0, C+)",
            "FAIL relation-conformance [n=3]: (P, C+)",
        ],
        id="bridge-counting",
    ),
    pytest.param(
        # R sends A- to E+, not back to C+
        {"apply": lambda t, c: _chord("E+", 3) if (t.token, c.name()) == ("R", "A-") else apply(t, c)},
        3,
        [
            "FAIL involution [n=3]: (R, C+)",
            "FAIL relation-conformance [n=3]: (R, A-)",
            "FAIL catalog-coverage [n=3]: A-",
        ],
        id="involution",
    ),
    pytest.param(
        {"apply": lambda t, c: c if (t.token, c.name()) == ("R", "C+") else apply(t, c)}, 3,
        [
            "FAIL involution [n=3]: (R, A-)",
            "FAIL modality-swap [n=3]: (R, C+)",
            "FAIL relation-conformance [n=3]: (R, C+)",
            "FAIL catalog-coverage [n=3]: C+",
        ],
        id="modality-swap",
    ),
    pytest.param(
        {"_same_region": lambda t, c, im: _same_region(t, c, im) and (t.token, c.name()) != ("R", "C+")},
        3, ["FAIL region-closure [n=3]: (R, C+)"], id="region-closure",
    ),
    pytest.param(
        {"set_class": lambda s: SetClass((), None) if len(set(s)) == 6 else set_class(s)}, 3,
        ["FAIL bridge-pitch-unions [n=3]: hexatonic region 0"], id="bridge-pitch-unions",
    ),
    pytest.param(
        # region 1 reports region 0's union: the set class holds, but the
        # unions coincide and region 1's full cycle misses its listed union
        {
            "bridge_regions": _region_changed(
                bridge_regions, 1, lambda rs, r: dataclasses.replace(r, pitch_union=rs[0].pitch_union)
            )
        },
        3, [
            "FAIL bridge-pitch-unions [n=3]: hexatonic region 0",
            "FAIL cycle-structure [n=3]: cycle C#+ C#- A+ A- F+ F-:"
            " it misses part of the region's pitch union",
        ],
        id="bridge-pitch-unions-apart",
    ),
    pytest.param(
        # the same at n=4, where shorter cycles come first: the union rule
        # holds for every cycle, so region 1's first 4-cycle is named
        {
            "bridge_regions": _region_changed(
                bridge_regions, 1, lambda rs, r: dataclasses.replace(r, pitch_union=rs[0].pitch_union)
            )
        },
        4, [
            "FAIL bridge-pitch-unions [n=4]: octatonic region 0",
            "FAIL cycle-structure [n=4]: cycle C#+ C#- E+ A#-: it misses part of the region's pitch union",
        ],
        id="cycle-structure-unions-every-length",
    ),
    pytest.param(
        {"bridge_regions": _region_changed(bridge_regions, 0, _slide_edge_doubled)}, 3,
        ["FAIL region-degrees [n=3]: hexatonic region 0"], id="region-degrees-bridge-edges",
    ),
    pytest.param(
        {"arthropod_regions": _region_changed(arthropod_regions, 0, _slide_edge_doubled)}, 3,
        ["FAIL region-degrees [n=3]: waterbug region 0"], id="region-degrees-arthropod-edges",
    ),
    pytest.param(
        {"arthropod_regions": _region_changed(arthropod_regions, 0, _relative_edge_relabelled)}, 3,
        ["FAIL region-degrees [n=3]: waterbug region 0"], id="region-degrees-relatives",
    ),
    pytest.param(
        # the last pair is dropped without being listed as unpaired
        {"complementarity_pairs": _complementarity_as(lambda comp: comp._replace(pairs=comp.pairs[:-1]))},
        3, ["FAIL complementarity [n=3]: N"], id="complementarity-paired",
    ),
    pytest.param(
        {"complementarity_pairs": _complementarity_as(lambda comp: comp._replace(unpaired=("S",)))},
        3, ["FAIL complementarity [n=3]: S"], id="complementarity-unpaired",
    ),
    pytest.param(
        # the paper's pair read the other way round
        {
            "complementarity_pairs": _complementarity_as(
                lambda comp: comp._replace(pairs=tuple(pair[::-1] for pair in comp.pairs))
            )
        },
        3, ["FAIL complementarity [n=3]: S"], id="complementarity-expected-pair",
    ),
    pytest.param(
        # C+ and C- are each other's pole, though they share pitch classes
        {"polar": _polar_as({"C+": "C-", "C-": "C+"})}, 3,
        ["FAIL polar-disjointness [n=3]: C+"], id="polar-disjointness",
    ),
    pytest.param(
        # G#- is C+'s pole, but its own pole is G#-
        {"polar": _polar_as({"G#-": "G#-"})}, 3,
        ["FAIL polar-disjointness [n=3]: C+"], id="polar-involution",
    ),
    pytest.param(
        {"transformation_between": lambda x, y: None if x.name() == "C+" else transformation_between(x, y)},
        3, ["FAIL catalog-coverage [n=3]: C+"], id="catalog-coverage-round-trip",
    ),
    pytest.param(
        # H sends each chord to its P image, labelled with P's relation: only
        # the poles' disjointness, and the doubled image, can tell
        {
            "apply": lambda t, c: apply(transformation("P", c.genus) if t.kind is Kind.POLAR else t, c),
            "catalog_relation": lambda t: catalog_relation(
                transformation("P", t.genus) if t.kind is Kind.POLAR else t
            ),
        },
        3,
        ["FAIL relation-conformance [n=3]: (H, C+)", "FAIL catalog-coverage [n=3]: C+"],
        id="relation-conformance-poles",
    ),
]


@pytest.mark.parametrize(("tampers", "n", "lines"), CHECK_TAMPERS)
def test_a_tampered_claim_fails_naming_its_first_failing_case(monkeypatch, tampers, n, lines):
    for attribute, replacement in tampers.items():
        monkeypatch.setattr(verify, attribute, replacement)
    assert (_failed_globally(monkeypatch) if n is None else _failed(n)) == lines


@pytest.fixture(scope="module")
def claims():
    """Each genus's claims as name -> holds(case), over one facts object per
    genus, whose tables are built on first use."""
    facts = {}

    def of(n):
        f = facts.setdefault(n, verify._Facts(n))
        return {name: partial(holds, f) for name, scope, _, holds in verify._CLAIMS if scope == "genus"}

    return of


def _chord(name, n):
    return parse_chord(name, genus(n))


def _stand_in(name, n, root, pitch_classes=None):
    """A chord-like case no honest library builds: `name`'s chord with
    another root, or other pitch classes."""
    c = _chord(name, n)
    pcs = c.pitch_classes() if pitch_classes is None else frozenset(pitch_classes)
    return SimpleNamespace(root=root, pitch_classes=lambda: pcs, modality=c.modality)


def _in_bridge_region(name, n, without_pole=False):
    """(bridge region of `name`'s chord, the chord); the region stand-in
    lacks the chord's pole when asked."""
    c = _chord(name, n)
    r = region_of(c, RegionKind.BRIDGE)
    if without_pole:
        r = SimpleNamespace(members=tuple(m for m in r.members if m != polar(c)))
    return r, c


# Cases no honest library produces, each breaking one conjunct of a claim
# that a tamper through run_checks cannot reach without raising first
# (perturb refuses a cell that is not symmetric): the claim's predicate is
# asked directly, beside an honest case it accepts.  Each is (genus, claim,
# the bad case, the honest case), the cases built on first use.
HAND_MADE_CASES = [
    pytest.param(3, "partition-structure", lambda: frozenset({0, 4, 9}), lambda: frozenset({0, 4, 8}),
                 id="cell-not-transposition-invariant"),
    pytest.param(4, "partition-structure", lambda: frozenset({0, 1, 3, 4, 6, 7, 9, 10}),
                 lambda: frozenset({0, 3, 6, 9}), id="invariant-cell-of-eight"),
    pytest.param(3, "chord-universe", lambda: _stand_in("C+", 3, 0, {0, 4, 7, 10}), lambda: _chord("C+", 3),
                 id="four-note-triad"),
    # C+'s pitch classes, whose semitone pair C-C# is rooted on C, with root C#
    pytest.param(6, "chord-universe", lambda: _stand_in("C+", 6, 1), lambda: _chord("C+", 6),
                 id="hexachord-rooted-off-its-semitone-pair"),
    pytest.param(3, "bridge-counting", lambda: _in_bridge_region("C+", 3, without_pole=True),
                 lambda: _in_bridge_region("C+", 3), id="no-pole"),
]


@pytest.mark.parametrize(("n", "claim", "bad", "honest"), HAND_MADE_CASES)
def test_a_claim_rejects_a_case_no_honest_library_builds(claims, n, claim, bad, honest):
    holds = claims(n)[claim]
    assert holds(honest())
    assert not holds(bad())


def test_a_claim_builds_only_the_tables_it_reads(monkeypatch):
    # at n=3 the seven claims before arthropod-partition read no region:
    # each builds its own tables and passes, and the first claim that reads
    # a region is the one that raises
    def unbuildable(g):
        raise RuntimeError("a region was read")

    monkeypatch.setattr(verify, "arthropod_regions", unbuildable)
    monkeypatch.setattr(verify, "bridge_regions", unbuildable)
    reported, real = [], verify.CheckResult

    def report(*fields):
        reported.append(real(*fields))
        return reported[-1]

    monkeypatch.setattr(verify, "CheckResult", report)
    with pytest.raises(RuntimeError, match="a region was read"):
        verify.run_checks(3)
    first = [
        "partition-structure", "chord-universe", "perturbation-roundtrip", "inversional-pairing",
        "vl-identity", "vl-symmetry", "vl-oracle-agreement",
    ]
    assert [r.line() for r in reported] == [f"PASS {name} [n=3]" for name in first]
    assert [name for name, scope, _, _ in verify._CLAIMS if scope == "genus"][7] == "arthropod-partition"

    # each region kind is a table of its own: with one builder refusing, as
    # a library fault does, the other kind's claims build and pass
    def refusing(kind):
        def builder(g):
            raise InvariantViolationError(f"no {kind} region")

        return builder

    for kind, passing in (
        ("bridge", ["arthropod-partition", "arthropod-counting"]),
        ("arthropod", ["bridge-partition"]),
    ):
        monkeypatch.undo()
        monkeypatch.setattr(verify, f"{kind}_regions", refusing(kind))
        results = {r.name: r for r in verify.run_checks(3)}
        assert all(results[name].passed for name in passing), kind
        assert results[f"{kind}-partition"].line() == f"FAIL {kind}-partition [n=3]: no {kind} region"


def _nearsym_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.partition(".")[0] == "nearsym"]


def _slide_moves():
    slides = (Kind.ARTHROPOD_SLIDE, Kind.BRIDGE_SLIDE)
    return [(t, c) for n in (3, 4, 6) for t in catalog(genus(n)) if t.kind in slides for c in all_chords(genus(n))]


def _moves_with_every_image():
    return [
        (t, c, image)
        for n in (3, 4, 6)
        for t in catalog(genus(n))
        for c in all_chords(genus(n))
        for image in all_chords(genus(n))
    ]


def _chord_pairs():
    return [(x, y) for n in (3, 4, 6) for x in all_chords(genus(n)) for y in all_chords(genus(n))]


def _perturbations():
    return [(cell, note, d) for n in (3, 4, 6) for cell in symmetric_partition(n) for note in cell for d in Direction]


# Each oracle helper, the functions it must not reach, and its whole domain:
# an oracle that ran through the code it confirms would confirm nothing.
ORACLES = [
    pytest.param(verify._slide_images, ("apply", "transformation_between"), _slide_moves, 480, id="_slide_images"),
    pytest.param(verify._same_region, ("apply",), _moves_with_every_image, 14_976, id="_same_region"),
    pytest.param(verify._naive_vl, ("vl_relation", "_relation"), _chord_pairs, 1_728, id="_naive_vl"),
    pytest.param(perturb, ("parent_symmetric_cell",), _perturbations, 72, id="perturb"),
]


@pytest.mark.parametrize(("oracle", "forbidden", "domain", "size"), ORACLES)
def test_an_oracle_reaches_none_of_the_functions_it_confirms(monkeypatch, oracle, forbidden, domain, size):
    cases = domain()
    assert len(cases) == size
    # every cache is emptied, so no answer the forbidden functions gave
    # before is read back
    clear_caches()

    def unreachable(name):
        def call(*args):
            raise AssertionError(f"{oracle.__name__} reached {name}")

        return call

    for module in _nearsym_modules():
        for name in forbidden:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable(name))
    for case in cases:
        oracle(*case)
