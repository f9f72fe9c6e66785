import dataclasses
import gc
import hashlib
import json
import random
import re
from collections import Counter

import networkx as nx
import pytest

from nearsym import region as region_module
from nearsym import transform as transform_module
from nearsym import verify as verify_module
from nearsym import voiceleading
from nearsym.chord import all_chords, genus, parse_chord
from nearsym.region import (
    RegionKind,
    arthropod_members,
    arthropod_regions,
    bridge_members,
    bridge_regions,
    complementarity_pairs,
    enumerate_smooth_cycles,
    export_graph,
    polar,
    region_of,
    region_to_dict,
    smooth_cycle_ids,
)
from nearsym.transform import Kind, apply, catalog, transformation, transformation_between
from nearsym.verify import EXPECTED_CYCLE_COUNTS, run_checks
from nearsym.voiceleading import catalog_relation, vl_relation

from conftest import clear_caches
from golden_library import GOLDEN as GOLDEN_LIBRARY
from golden_library import digest
from oracles import crown_cycle_counts, crown_hamiltonian_cycles, cycle_oracle

G3, G4, G6 = genus(3), genus(4), genus(6)
ALL_GENERA = (G3, G4, G6)
RECORDED_LIBRARY = json.loads(GOLDEN_LIBRARY.read_text(encoding="utf-8"))


def chords(g, *names):
    return {parse_chord(name, g) for name in names}


def test_named_region_membership():
    waterbug = region_of(parse_chord("C+", G3), RegionKind.ARTHROPOD)
    assert set(waterbug.members) == chords(G3, "C+", "A-", "E+", "C#-", "G#+", "F-")
    centipede = region_of(parse_chord("C+", G6), RegionKind.ARTHROPOD)
    assert set(centipede.members) == chords(
        G6, "A#+", "C#-", "D+", "F-", "F#+", "A-", "G#+", "B-", "C+", "D#-", "E+", "G-"
    )
    octatonic = region_of(parse_chord("C#+", G4), RegionKind.BRIDGE)
    assert set(octatonic.members) == chords(
        G4, "C#+", "E+", "G+", "A#+", "C#-", "E-", "G-", "A#-"
    )


def test_region_of_examples():
    assert region_of(parse_chord("C+", G3), RegionKind.ARTHROPOD).id == 0
    assert region_of(parse_chord("C+", G6), RegionKind.BRIDGE).id == 0
    assert region_of(parse_chord("D#-", G4), RegionKind.BRIDGE) == region_of(
        parse_chord("C+", G4), RegionKind.BRIDGE
    )


def test_region_of_rejects_a_kind_that_is_no_region_kind():
    # an enum value, None or 0 is no RegionKind: none may fall through to
    # the bridge branch and come back as hexatonic region 0
    c_plus = parse_chord("C+", G3)
    for kind in ("arthropod", "bridge", None, 0):
        with pytest.raises(ValueError, match=f"unknown region kind: {kind!r}"):
            region_of(c_plus, kind)


def test_hexatonic_compass_aliases():
    aliases = {r.id: r.alias for r in bridge_regions(G3)}
    assert aliases == {0: "Northern", 1: "Eastern", 2: "Southern", 3: "Western"}
    assert region_of(parse_chord("C+", G3), RegionKind.BRIDGE).alias == "Northern"
    assert all(r.alias is None for r in arthropod_regions(G3))
    assert all(r.alias is None for r in bridge_regions(G4))


@pytest.mark.parametrize(
    "kind", [Kind.RELATIVE, Kind.ARTHROPOD_SLIDE, Kind.BRIDGE_SLIDE], ids=lambda k: k.value
)
def test_a_wrong_kind_relation_fails_conformance_and_changes_the_region_digest(
    monkeypatch, fresh_caches, kind
):
    # One more voice moved a semitone than the paper says, e.g. bridge slides
    # labelled P(n-1),0: every edge of that kind carries the wrong label.
    real = catalog_relation

    def wrong(t):
        right = real(t)
        return right._replace(semitones=right.semitones + 1) if t.kind is kind else right

    for module in ("voiceleading", "region", "verify"):
        monkeypatch.setattr(f"nearsym.{module}.catalog_relation", wrong)
    # n=6 is left out for time: its verify run enumerates 33,352 cycles.
    for n in (3, 4):
        first = next(t.token for t in catalog(genus(n)) if t.kind is kind)
        assert f"FAIL relation-conformance [n={n}]: ({first}, C+)" in [
            r.line() for r in run_checks(n) if not r.passed
        ]
    assert digest("region_of") != RECORDED_LIBRARY["region_of"]


def test_membership_is_arithmetic_and_reads_no_built_region(fresh_caches):
    every = [c for g in ALL_GENERA for c in all_chords(g)]
    assert len(every) == 72
    members = {c: (arthropod_members(c), bridge_members(c)) for c in every}
    assert arthropod_regions.cache_info().currsize == 0
    assert bridge_regions.cache_info().currsize == 0
    for c, (arthropod, bridge) in members.items():
        assert arthropod == region_of(c, RegionKind.ARTHROPOD).members
        assert bridge == region_of(c, RegionKind.BRIDGE).members


def test_region_hash_agrees_with_eq_and_reads_no_members_or_edges():
    regions = [r for g in ALL_GENERA for r in (*arthropod_regions(g), *bridge_regions(g))]
    assert len(set(regions)) == 18
    for r in regions:
        rebuilt = dataclasses.replace(r)
        assert rebuilt is not r and rebuilt == r and hash(rebuilt) == hash(r)
        # lists are unhashable, so a hash that read either field would raise
        assert hash(dataclasses.replace(r, members=list(r.members), edges=list(r.edges))) == hash(r)


def test_polar_examples():
    assert str(polar(parse_chord("C+", G4))) == "D#-"
    assert str(polar(parse_chord("C+", G6))) == "D-"
    assert str(polar(parse_chord("C+", G3))) == "G#-"


def test_polar_matches_catalog_and_is_disjoint():
    for g, token in ((G3, "H"), (G4, "O"), (G6, "Z")):
        pole = transformation(token, g)
        for c in all_chords(g):
            p = polar(c)
            assert p == apply(pole, c)
            assert not (c.pitch_classes() & p.pitch_classes())
            assert polar(p) == c


def _adjacency(region):
    adj = {m: set() for m in region.members}
    for e in region.edges:
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    return adj


def test_edge_counts_and_degrees():
    for g in ALL_GENERA:
        for r in arthropod_regions(g):
            assert len(r.edges) == g.n * g.n
            adj = _adjacency(r)
            for m in r.members:
                assert len(adj[m]) == g.n
                relative = [
                    e for e in r.edges
                    if m in (e.a, e.b) and e.transformation.kind is Kind.RELATIVE
                ]
                assert len(relative) == 1
        for r in bridge_regions(g):
            assert len(r.edges) == g.n * g.n - g.n
            adj = _adjacency(r)
            for m in r.members:
                assert len(adj[m]) == g.n - 1


def test_edges_cross_modalities_and_carry_consistent_labels():
    for g in ALL_GENERA:
        for r in arthropod_regions(g) + bridge_regions(g):
            for e in r.edges:
                assert e.a.modality is not e.b.modality
                assert transformation_between(e.a, e.b) == e.transformation
                assert e.relation == vl_relation(e.a, e.b)


def test_cycle_counts_match_the_closed_form(bridge_cycle_oracle):
    # The closed form against brute force on crown graphs outside the genera too.
    for k in range(2, 6):
        crown = nx.complete_bipartite_graph(k, k)
        crown.remove_edges_from((i, k + i) for i in range(k))
        lengths = Counter(len(c) for c in nx.simple_cycles(crown))
        assert crown_cycle_counts(k) == dict(lengths)
    for n, pinned in EXPECTED_CYCLE_COUNTS.items():
        closed_form = crown_cycle_counts(n)
        assert closed_form == pinned
        assert closed_form[2 * n] == crown_hamiltonian_cycles(n)
        for r in bridge_regions(genus(n)):
            assert Counter(len(c) for c in bridge_cycle_oracle[n, r.id]) == closed_form
    assert crown_hamiltonian_cycles(6) == 4800


@pytest.mark.parametrize("n", [3, 4, 6])
def test_length_window_filters_the_full_enumeration(n):
    # Regions inside windows: the bridge regions of a genus share one graph,
    # walked once in full, so after the first full walk every window of
    # every region is a slice of it and no window walks again.
    full = {r: smooth_cycle_ids(r) for r in bridge_regions(genus(n))}
    misses = region_module._walk.cache_info().misses
    for lo in range(4, 2 * n + 1):
        for hi in range(lo, 2 * n + 1):
            for r, (chords, cycles) in full.items():
                expected = tuple(cyc for cyc in cycles if lo <= len(cyc) <= hi)
                assert smooth_cycle_ids(r, lo, hi) == (chords, expected), (r, lo, hi)
    assert region_module._walk.cache_info().misses == misses


def test_the_walk_lists_no_cycle_shorter_than_four():
    # Bridge graphs are bipartite, so only a graph with triangles shows the
    # walk's lower bound: K4 has four triangles and three 4-cycles.
    k4 = tuple(0b1111 ^ (1 << i) for i in range(4))
    cycles, starts = region_module._walk(k4)
    assert cycles == ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3))
    assert starts == (0, 0, 0, 0, 0, 3)


def test_the_walk_matches_networkx_on_random_graphs():
    # Bridge graphs are crown graphs; random graphs bring triangles, odd
    # cycles and uneven degrees, and so test the order in which the walk
    # takes a mask's set bits as well as its start, emission and closing
    # bounds.
    rng = random.Random(22)
    for trial in range(40):
        size = rng.randint(4, 9)
        edges = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.5]
        nbm = [0] * size
        for i, j in edges:
            nbm[i] |= 1 << j
            nbm[j] |= 1 << i
        cycles, starts = region_module._walk(tuple(nbm))
        assert set(cycles) == cycle_oracle(edges, 4, size, key=lambda v: v), trial
        assert len(cycles) == len(set(cycles)) == starts[-1], trial
        for k in range(4, size + 1):
            window = cycles[starts[k] : starts[k + 1]]
            assert all(len(cycle) == k for cycle in window), (trial, k)
            assert all(a < b for a, b in zip(window, window[1:])), (trial, k)


def _garbage_after(call, *args):
    gc.collect()
    call(*args)
    return gc.collect()


def test_cycle_walk_leaves_no_garbage():
    # A walk that holds its results in reference cycles keeps every cycle
    # list alive until the collector runs, which doubles peak memory.  The
    # walk is cached, so its cache is emptied first: a cached walk walks nothing.
    region_module._walk.cache_clear()
    assert _garbage_after(smooth_cycle_ids, bridge_regions(G6)[0]) == 0
    assert region_module._walk.cache_info().misses == 1


def test_vl_relation_leaves_no_garbage():
    # The same trap in one uncached call: a search recursing through a
    # closure that refers to itself leaves its frames for the collector.
    # Both layers are memoised, so the scan's cache is emptied first.
    c_plus, c_minus = parse_chord("C+", G6), parse_chord("C-", G6)
    voiceleading._relation.cache_clear()
    assert _garbage_after(vl_relation.__wrapped__, c_plus, c_minus) == 0
    assert voiceleading._relation.cache_info().misses == 1


def test_the_bridge_regions_of_a_genus_share_one_cycle_walk():
    region_module._walk.cache_clear()
    first, second = bridge_regions(G6)
    chords_0, cycles_0 = smooth_cycle_ids(first)
    chords_1, cycles_1 = smooth_cycle_ids(second)
    assert region_module._walk.cache_info().misses == 1
    assert chords_0 != chords_1
    assert cycles_1 is cycles_0


def test_verify_walks_each_genus_once_and_shares_its_cycles(monkeypatch):
    # 9 bridge regions, 3 graphs: one walk per genus, and both dodecatonic
    # regions get the one cached tuple of their graph's full walk.
    region_module._walk.cache_clear()
    answers = {}
    real = verify_module.smooth_cycle_ids

    def recorded(r):
        answers[r] = real(r)
        return answers[r]

    monkeypatch.setattr(verify_module, "smooth_cycle_ids", recorded)
    assert [c.line() for c in run_checks() if not c.passed] == []
    assert region_module._walk.cache_info().misses == 3
    assert len(answers) == 9
    first, second = bridge_regions(G6)
    assert answers[second][1] is answers[first][1]


def test_a_region_with_another_graph_gets_a_walk_of_its_own(monkeypatch):
    # the walk is keyed by the neighbour masks, not by the genus: drop one
    # edge of the second octatonic region and it loses the cycles through it
    first, second = bridge_regions(G4)[:2]
    real = region_module.adjacency

    def adjacency(r):
        adj = real(r)
        if r == second:
            x = min(adj, key=lambda c: c.sort_key)
            y = min(adj[x], key=lambda c: c.sort_key)
            adj[x].remove(y)
            adj[y].remove(x)
        return adj

    monkeypatch.setattr(region_module, "adjacency", adjacency)
    _, cycles_0 = smooth_cycle_ids(first)
    _, cycles_1 = smooth_cycle_ids(second)
    assert len(cycles_0) == sum(EXPECTED_CYCLE_COUNTS[4].values())
    assert 0 < len(cycles_1) < len(cycles_0)


def test_full_cycles_cover_the_region_union():
    for g in ALL_GENERA:
        for r in bridge_regions(g):
            full = [c for c in enumerate_smooth_cycles(r, 2 * g.n, 2 * g.n)]
            assert full
            for cyc in full:
                assert cyc.pitch_union == r.pitch_union


def test_every_oracle_cycle_covers_its_region_union(bridge_cycle_oracle):
    # `nearsym cycles` prints the region's union as every cycle's union; the
    # networkx cycles confirm it at every length, apart from the library walk
    # and from verify's cycle-structure.
    for g in ALL_GENERA:
        for r in bridge_regions(g):
            cycles = bridge_cycle_oracle[g.n, r.id]
            assert {len(cycle) for cycle in cycles} == set(EXPECTED_CYCLE_COUNTS[g.n])
            for cycle in cycles:
                assert frozenset().union(*(c.pitch_classes() for c in cycle)) == r.pitch_union, cycle


def test_cycle_bounds_are_validated():
    region = bridge_regions(G4)[0]
    window = re.escape("cycle lengths must satisfy 4 <= min <= max <= 8")
    for lo, hi in [(3, 8), (6, 4), (4, 9), (4, 10)]:
        with pytest.raises(ValueError, match=window):
            enumerate_smooth_cycles(region, lo, hi)
    with pytest.raises(ValueError, match="defined only on bridge regions"):
        enumerate_smooth_cycles(arthropod_regions(G4)[0])


def test_complementarity_pairs():
    assert complementarity_pairs(G3).pairs == (("S", "P"), ("N", "L"))
    comp4 = complementarity_pairs(G4)
    assert ("S3(4)", "S4") in comp4.pairs
    assert set(comp4.pairs) == {("S3(4)", "S4"), ("S3(2)", "S2"), ("S6", "S5")}
    comp6 = complementarity_pairs(G6)
    assert ("SA(3)", "S3(A)") in comp6.pairs
    assert set(comp6.pairs) == {
        ("SA(3)", "S3(A)"),
        ("SA(5)", "S5(A)"),
        ("SF", "S5(F)"),
        ("SW(1)", "S1"),
        ("SW(3)", "S3(W)"),
    }
    for g in ALL_GENERA:
        assert complementarity_pairs(g).unpaired == ()


def test_a_slide_whose_parts_match_no_partner_leaves_both_unpaired(monkeypatch, fresh_caches):
    # S moving a 4 is the swap of no bridge slide's parts, so S and the
    # bridge slide it pairs with today, P, are both left over, in catalog order
    rows = tuple(
        ("S", kind, held, 4, offset) if token == "S" else (token, kind, held, moved, offset)
        for token, kind, held, moved, offset in transform_module._ROWS[3]
    )
    monkeypatch.setitem(transform_module._ROWS, 3, rows)
    clear_caches()
    comp = complementarity_pairs(G3)
    assert comp.pairs == (("N", "L"),)
    assert comp.unpaired == ("S", "P")


def test_dot_export():
    hexatonic = region_of(parse_chord("C+", G3), RegionKind.BRIDGE)
    dot = export_graph(hexatonic, "dot")
    assert dot.startswith("graph hexatonic_0 {")
    assert dot.count(";") == 6 + 6  # 6 nodes, 6 edges
    assert '"C+" -- "C-" [label="P P1,0"];' in dot
    dodecatonic = region_of(parse_chord("C+", G6), RegionKind.BRIDGE)
    dot = export_graph(dodecatonic, "dot")
    assert dot.count(" -- ") == 30


def test_json_export_schema():
    region = region_of(parse_chord("C+", G3), RegionKind.ARTHROPOD)
    payload = json.loads(export_graph(region, "json"))
    assert payload["kind"] == "arthropod"
    assert payload["genus"] == 3
    assert payload["id"] == "0"
    assert set(payload["members"]) == {"C+", "A-", "E+", "C#-", "G#+", "F-"}
    assert payload["set_class"] is None  # nine-note union carries no name here
    assert len(payload["edges"]) == 9
    for edge in payload["edges"]:
        assert set(edge) == {"a", "b", "transform", "relation"}
    bridge = region_of(parse_chord("C+", G6), RegionKind.BRIDGE)
    payload = json.loads(export_graph(bridge, "json"))
    assert payload["set_class"] == "12-1"
    assert payload["pitch_union"] == list(range(12))
    assert payload == region_to_dict(bridge)


# SHA-256 over the 72 export strings in export_cases() order, recorded from
# the uncached serializer.
EXPORT_DIGEST = "262e1a1cfc983080b05808a1376b8f45cbadca848700fcede0e344c47a2ceede"


def export_cases():
    """(region, format, flats) for every library region, format and spelling."""
    regions = [r for g in ALL_GENERA for r in (*arthropod_regions(g), *bridge_regions(g))]
    return [(r, fmt, flats) for r in regions for fmt in ("dot", "json") for flats in (False, True)]


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError):
        export_graph(bridge_regions(G3)[0], "yaml")


def test_every_export_string_is_pinned():
    cases = export_cases()
    assert len(cases) == 72 and len({r for r, _, _ in cases}) == 18
    texts = [export_graph(*case) for case in cases]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == EXPORT_DIGEST
    for (r, fmt, flats), text in zip(cases, texts):
        if fmt == "json":
            assert text == json.dumps(region_to_dict(r, flats), indent=2) + "\n"


@pytest.fixture
def empty_export_memo():
    region_module._export.cache_clear()
    yield region_module._export.cache_info
    region_module._export.cache_clear()


def test_export_memo_returns_one_string_per_region_format_and_spelling(empty_export_memo):
    cases = export_cases()
    for _ in range(2):
        for case in cases:
            export_graph(*case)
    info = empty_export_memo()
    assert (info.currsize, info.misses, info.hits) == (72, 72, 72)
    r = bridge_regions(G6)[0]
    assert export_graph(r, "json") is export_graph(r, "json")
    assert export_graph(r, "dot", True) != export_graph(r, "dot", False)


def test_export_memo_normalises_flats_and_keywords(empty_export_memo):
    r = bridge_regions(G4)[1]
    texts = {
        export_graph(r, "dot", True),
        export_graph(r, "dot", 1),
        export_graph(r, format="dot", flats=True),
        export_graph(region=r, flats=1, format="dot"),
    }
    assert len(texts) == 1 and "#" not in texts.pop()
    assert empty_export_memo().currsize == 1


def test_export_memo_caches_no_unknown_format(empty_export_memo):
    r = bridge_regions(G3)[0]
    export_graph(r)
    for _ in range(2):
        with pytest.raises(ValueError):
            export_graph(r, "yaml")
    assert empty_export_memo().currsize == 1


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_export_memo_never_serves_a_tampered_copy(empty_export_memo, fmt):
    r = bridge_regions(G6)[1]
    whole = export_graph(r, fmt)
    tampered = dataclasses.replace(r, edges=r.edges[:-1])
    assert hash(tampered) == hash(r) and tampered != r
    cut = export_graph(tampered, fmt)
    dropped = r.edges[-1]
    if fmt == "dot":
        line = f'"{dropped.a.name()}" -- "{dropped.b.name()}"'
        assert line in whole and line not in cut
    else:
        assert len(json.loads(cut)["edges"]) == len(r.edges) - 1
    assert cut == export_graph(tampered, fmt) and whole is export_graph(r, fmt)


def test_region_to_dict_returns_a_fresh_dict_each_call():
    r = arthropod_regions(G3)[0]
    first = region_to_dict(r)
    first["edges"].clear()
    first["members"].append("X")
    assert region_to_dict(r) is not region_to_dict(r)
    assert region_to_dict(r) == json.loads(export_graph(r, "json"))
    assert len(region_to_dict(r)["edges"]) == len(r.edges)
