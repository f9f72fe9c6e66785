"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
pytest -s or on failure).  All comparisons are exact: the chord universes
are tiny, so every claim is checked by full enumeration against independent
re-derivations in tests/oracles.py.  Criterion 11, byte-identical output
from `verify` and every export, is held by the golden CLI replay
(tests/test_golden_cli.py), which pins each exit code and stdout digest.
"""

from contextlib import contextmanager

import networkx as nx
import pytest

from nearsym import verify
from nearsym.chord import Modality, all_chords, arthropod_collection, genus, parse_chord
from nearsym.pcset import CHROMATIC, set_class
from nearsym.region import (
    RegionKind,
    arthropod_regions,
    bridge_regions,
    complementarity_pairs,
    enumerate_smooth_cycles,
    polar,
    region_of,
)
from nearsym.transform import Kind, apply, catalog, transformation
from nearsym.voiceleading import VoiceLeading, vl_relation

from oracles import crown_hamiltonian_cycles, vl_oracle

G3, G4, G6 = genus(3), genus(4), genus(6)
ALL_GENERA = (G3, G4, G6)

DODECATONIC_HAMILTONIAN_COUNT = 4800  # 5! * U_6 / 2, U_6 = 80 the sixth menage number


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    print(f"criterion {number:2d} PASS  {label}")


def chords(g, *names):
    return {parse_chord(name, g) for name in names}


def test_criterion_1_region_reproduction():
    with criterion(1, "named arthropod collections reproduced exactly"):
        assert set(arthropod_collection({8, 0, 4})) == chords(
            G3, "C+", "A-", "E+", "C#-", "G#+", "F-"
        )
        assert set(arthropod_collection({0, 2, 4, 6, 8, 10})) == chords(
            G6,
            "A#+", "C#-", "D+", "F-", "F#+", "A-",
            "G#+", "B-", "C+", "D#-", "E+", "G-",
        )
        # Last member is C#-: perturbing A# upward yields {C#, E, G, B}, and
        # template matching roots that set at C#.
        assert set(arthropod_collection({1, 4, 7, 10})) == chords(
            G4, "C+", "E-", "D#+", "G-", "F#+", "A#-", "A+", "C#-"
        )


def test_criterion_2_named_example_suite():
    cases = [
        (G3, "R", "C+", "A-"),
        (G3, "S", "C+", "C#-"),
        (G3, "N", "C+", "F-"),
        (G4, "R*", "C+", "E-"),
        (G4, "S3(4)", "C+", "G-"),
        (G4, "S3(2)", "C+", "C#-"),
        (G4, "S4", "C+", "F#-"),
        (G4, "O", "C+", "D#-"),
        (G6, "R**", "C+", "D#-"),
        (G6, "SA(3)", "C+", "B-"),
        (G6, "S1", "C+", "C-"),
        (G6, "Z", "C+", "D-"),
    ]
    with criterion(2, "every named transformation example reproduced"):
        for g, token, source, expected in cases:
            result = apply(transformation(token, g), parse_chord(source, g))
            assert result == parse_chord(expected, g), (token, source)


def test_criterion_3_involution_law():
    with criterion(3, "all catalog transformations are involutions"):
        checked = 0
        for g in ALL_GENERA:
            for t in catalog(g):
                for c in all_chords(g):
                    assert apply(t, apply(t, c)) == c
                    checked += 1
        assert checked == 24 * (6 + 8 + 12)


def test_criterion_4_counting_claims():
    with criterion(4, "per-chord partner counts inside both region kinds"):
        for g in ALL_GENERA:
            n = g.n
            for c in all_chords(g):
                arthropod = region_of(c, RegionKind.ARTHROPOD)
                others = [m for m in arthropod.members if m.modality is not c.modality]
                relations = [vl_relation(c, m) for m in others]
                assert relations.count(VoiceLeading(0, 1)) == 1
                assert relations.count(VoiceLeading(2, 0)) == n - 1
                bridge = region_of(c, RegionKind.BRIDGE)
                others = [m for m in bridge.members if m.modality is not c.modality]
                slides = [m for m in others if vl_relation(c, m) == VoiceLeading(n - 2, 0)]
                poles = [m for m in others if not (c.pitch_classes() & m.pitch_classes())]
                assert len(slides) == n - 1
                assert poles == [polar(c)]


def test_criterion_5_bridge_pitch_unions():
    with criterion(5, "bridge-region pitch unions are 6-20 / 8-28 / 12-1"):
        expected = {G3: "6-20", G4: "8-28", G6: "12-1"}
        for g, name in expected.items():
            for r in bridge_regions(g):
                assert set_class(r.pitch_union).forte_name == name
        # the hexatonic and octatonic unions are distinct transpositions;
        # both dodecatonic unions are the whole chromatic
        assert len({r.pitch_union for r in bridge_regions(G3)}) == 4
        assert len({r.pitch_union for r in bridge_regions(G4)}) == 3
        assert all(r.pitch_union == CHROMATIC for r in bridge_regions(G6))


def test_criterion_6_partition_claims():
    with criterion(6, "4/3/2 regions of each kind partition all 24 chords"):
        for g, count in ((G3, 4), (G4, 3), (G6, 2)):
            for builder in (arthropod_regions, bridge_regions):
                regions = builder(g)
                assert len(regions) == count
                for r in regions:
                    assert len(r.members) == 2 * g.n
                    assert sum(m.modality is Modality.PLUS for m in r.members) == g.n
                members = [m for r in regions for m in r.members]
                assert len(members) == 24
                assert set(members) == set(all_chords(g))


def _crown(n):
    """The crown graph: K(n,n) minus a perfect matching, sides in the
    "bipartite" node attribute."""
    graph = nx.complete_bipartite_graph(n, n)
    graph.remove_edges_from((i, n + i) for i in range(n))
    return graph


def test_criterion_7_graph_shapes():
    with criterion(7, "hexagon / cube / K(6,6)-minus-matching graph shapes"):
        assert nx.is_isomorphic(_crown(3), nx.cycle_graph(6))
        assert nx.is_isomorphic(_crown(4), nx.hypercube_graph(3))
        for g in ALL_GENERA:
            for r in bridge_regions(g):
                graph = nx.Graph()
                graph.add_nodes_from(
                    (m, {"bipartite": int(m.modality is Modality.MINUS)}) for m in r.members
                )
                graph.add_edges_from((e.a, e.b) for e in r.edges)
                # the modalities are the two sides, the polar pairs the matching
                assert nx.is_isomorphic(
                    graph, _crown(g.n), node_match=lambda a, b: a["bipartite"] == b["bipartite"]
                )
                assert not any(graph.has_edge(m, polar(m)) for m in r.members)


def test_criterion_8_cycle_oracle_equivalence(bridge_cycle_oracle):
    with criterion(8, "cycle enumeration matches the independent oracle"):
        for g in ALL_GENERA:
            for r in bridge_regions(g):
                cycles = enumerate_smooth_cycles(r)
                reference = bridge_cycle_oracle[g.n, r.id]
                assert {tuple(c.chords) for c in cycles} == reference
                assert len(cycles) == len(reference)  # no cycle listed twice
                assert list(cycles) == sorted(
                    cycles, key=lambda cyc: (len(cyc), tuple(c.sort_key for c in cyc.chords))
                )
        hexatonic = enumerate_smooth_cycles(bridge_regions(G3)[0])
        assert len(hexatonic) == 1
        octatonic = enumerate_smooth_cycles(bridge_regions(G4)[0])
        by_length = {}
        for cyc in octatonic:
            by_length[len(cyc)] = by_length.get(len(cyc), 0) + 1
        assert by_length == {4: 6, 6: 16, 8: 6}
        assert len(octatonic) == 28
        dodecatonic = enumerate_smooth_cycles(bridge_regions(G6)[0], 12, 12)
        assert len(dodecatonic) == DODECATONIC_HAMILTONIAN_COUNT
        assert crown_hamiltonian_cycles(6) == DODECATONIC_HAMILTONIAN_COUNT


def test_criterion_9_complementarity():
    with criterion(9, "arthropod and bridge slides pair by swapped parts"):
        for g in (G4, G6):
            comp = complementarity_pairs(g)
            arthropod_slides = [t.token for t in catalog(g) if t.kind is Kind.ARTHROPOD_SLIDE]
            assert sorted(a for a, _ in comp.pairs) == sorted(arthropod_slides)
            assert comp.unpaired == ()
        assert ("S3(4)", "S4") in complementarity_pairs(G4).pairs
        assert ("SA(3)", "S3(A)") in complementarity_pairs(G6).pairs
        assert ("S", "P") in complementarity_pairs(G3).pairs


def test_criterion_10_vl_oracle_equivalence():
    # the plain permutation scan checks the library relation and verify's
    # bounded-step walk, the reference of its vl-oracle-agreement check
    with criterion(10, "voice-leading relation matches exhaustive search on 1728 pairs"):
        pairs = 0
        for g in ALL_GENERA:
            universe = all_chords(g)
            for x in universe:
                for y in universe:
                    expected = vl_oracle(x.pitch_classes(), y.pitch_classes())
                    for actual in (vl_relation(x, y), verify._naive_vl(x, y)):
                        assert (tuple(actual) if actual else None) == expected
                    pairs += 1
        assert pairs == 3 * 24 * 24


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-v"])
