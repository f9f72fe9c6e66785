"""Tampered inputs fail the verify claims that should catch them.

The cycle-structure check fails on tampered enumerator ids and names the
offending cycle and the rule it breaks, a cycle listed twice or in another
reading and a cycle of no or two chords included; on honest ids it passes
with an empty detail.  Missing cycles fail cycle-counts, which names the
region and the counts it found.  A region lookup that answers with the wrong
region fails the partition checks, and a bridge graph with an edge too many,
or with two edges switched to same-modality pairs, fails graph-shape.  A
displaced-note offset one semitone off fails perturbation-roundtrip.  A
voice-leading relation wrong on one pair fails vl-oracle-agreement alone.  A
prime form that is not transposition-invariant on one set, one that ignores
inversion on every major triad, one wrong on a set that is its own
inversion, and an interval-class vector wrong on one set each fail
prime-form-invariance alone: between them they need the T1 comparison, the
I0 comparison and the interval-vector half of the check."""

from types import SimpleNamespace

import pytest

from nearsym import verify
from nearsym.chord import _DISPLACED_NOTE, genus, parent_symmetric_cell, parse_chord
from nearsym.pcset import interval_class_vector, prime_form, transpose
from nearsym.region import (
    RegionKind,
    arthropod_regions,
    bridge_regions,
    polar,
    region_of,
    smooth_cycle_ids,
)
from nearsym.voiceleading import VoiceLeading, vl_relation

K = 50  # a 4-cycle in the middle of the 90 four-chord cycles
TAMPER_NAMES = (
    "non-edge hop", "repeated chord", "same-modality neighbours", "no full-length cycle",
    "repeated cycle", "other reading", "other start", "empty cycle", "two-chord cycle",
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


def _failed(n):
    return [r.line() for r in verify.run_checks(n) if not r.passed]


def _failed_globally():
    results = []
    verify._global_checks(results)
    return [r.line() for r in results if not r.passed]


def test_cycle_structure_passes_on_the_enumerator_output(monkeypatch, dodecatonic):
    A, B, C, D = dodecatonic.kth
    assert len(dodecatonic.cycles[K]) == 4
    assert A.modality is C.modality is not B.modality is D.modality
    _enumerate_as(monkeypatch, dodecatonic, dodecatonic.cycles)
    assert verify._cycle_checks(dodecatonic.region) == ("", "")


@pytest.mark.parametrize("tamper", TAMPER_NAMES)
def test_cycle_structure_names_the_tampered_cycle(monkeypatch, dodecatonic, tamper):
    cycles, detail = dodecatonic.tampers[tamper]
    _enumerate_as(monkeypatch, dodecatonic, cycles)
    assert verify._cycle_checks(dodecatonic.region)[1] == detail


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
    assert verify._cycle_checks(dodecatonic.region) == ("", detail)


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
    assert "FAIL arthropod-partition [n=4]" in failed
    assert "FAIL bridge-partition [n=4]" in failed


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
    assert f"FAIL graph-shape [n={n}]" in _failed(n)


def _clear_parent_caches():
    for cached in (parent_symmetric_cell, arthropod_regions, bridge_regions):
        cached.cache_clear()


@pytest.fixture
def fresh_parent_caches(monkeypatch):
    _clear_parent_caches()
    yield
    monkeypatch.undo()
    _clear_parent_caches()


@pytest.mark.parametrize("entry", list(_DISPLACED_NOTE), ids=lambda entry: f"{entry[0]}{entry[1]}")
def test_a_displaced_note_one_semitone_off_fails_the_roundtrip(
    monkeypatch, fresh_parent_caches, entry
):
    monkeypatch.setitem(_DISPLACED_NOTE, entry, _DISPLACED_NOTE[entry] + 1)
    n = entry[0]
    assert f"FAIL perturbation-roundtrip [n={n}]" in _failed(n)


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
    assert _failed(6) == ["FAIL vl-oracle-agreement [n=6]"]


def test_a_prime_form_not_transposition_invariant_fails_the_invariance_check(monkeypatch):
    # C major's transposition up a semitone answers with the major triad
    # unreduced; no Forte prime form is that set, so forte-table still holds
    monkeypatch.setattr(
        verify,
        "prime_form",
        lambda s: (0, 4, 7) if set(s) == {1, 5, 8} else prime_form(s),
    )
    assert _failed_globally() == ["FAIL prime-form-invariance"]


def test_a_prime_form_that_ignores_inversion_fails_the_invariance_check(monkeypatch):
    # every major triad answers its own form, unreduced by inversion: the
    # answer is transposition-invariant, but the minor triads answer (0, 3, 7)
    majors = {transpose({0, 4, 7}, t) for t in range(12)}
    monkeypatch.setattr(
        verify,
        "prime_form",
        lambda s: (0, 4, 7) if frozenset(s) in majors else prime_form(s),
    )
    assert _failed_globally() == ["FAIL prime-form-invariance"]


def test_an_interval_vector_wrong_on_one_set_fails_the_invariance_check(monkeypatch):
    assert interval_class_vector({0, 4, 7}) == (0, 0, 1, 1, 1, 0)
    monkeypatch.setattr(
        verify,
        "interval_class_vector",
        lambda s: (0, 0, 0, 1, 1, 1) if set(s) == {0, 4, 7} else interval_class_vector(s),
    )
    assert _failed_globally() == ["FAIL prime-form-invariance"]


def test_a_prime_form_wrong_on_one_inversion_symmetric_set_fails_the_invariance_check(
    monkeypatch,
):
    # {1, 11} is its own inversion, so only its transpositions can expose the
    # unreduced answer; no Forte prime form is that set
    assert prime_form({1, 11}) == (0, 2)
    monkeypatch.setattr(
        verify, "prime_form", lambda s: (0, 10) if set(s) == {1, 11} else prime_form(s)
    )
    assert _failed_globally() == ["FAIL prime-form-invariance"]
