"""Metamorphic checks under transposition by a semitone (T1) and inversion
about C (I0).

Both operations map every genus onto itself, so the public API must commute
with them.  Each one is computed from pitch classes through ``find_chord``,
never from roots, so a rule keyed on absolute roots or pitch classes fails
here even where every fixed example passes.  A wrong catalog offset still
commutes with both; ``verify``'s catalog checks own offsets.
"""

import json

import pytest

from nearsym.chord import GENERA, Direction, all_chords, find_chord, parent_symmetric_cell
from nearsym.region import (
    RegionKind,
    arthropod_regions,
    bridge_regions,
    export_graph,
    polar,
    region_of,
    smooth_cycle_ids,
)
from nearsym.transform import apply, catalog, transformation_between
from nearsym.voiceleading import vl_relation

# each operation on one pitch class, and whether it reverses direction
PC_OPERATIONS = {
    "T1": (lambda p: (p + 1) % 12, False),
    "I0": (lambda p: -p % 12, True),
}
FLIPPED = {Direction.UP: Direction.DOWN, Direction.DOWN: Direction.UP}

genera = pytest.mark.parametrize("n", GENERA)
operations = pytest.mark.parametrize("op", PC_OPERATIONS)


def _on_chords(n, op):
    """The operation as a map from each chord of the genus to its image."""
    on_pc = PC_OPERATIONS[op][0]
    g = GENERA[n]
    return {c: find_chord({on_pc(p) for p in c.pitch_classes()}, g) for c in all_chords(g)}


@genera
@operations
def test_each_operation_is_a_bijection_on_the_chords_of_a_genus(n, op):
    image = _on_chords(n, op)
    assert None not in image.values()
    assert set(image.values()) == set(all_chords(GENERA[n]))


@genera
@operations
def test_apply_and_polar_commute_with_each_operation(n, op):
    image = _on_chords(n, op)
    for c in all_chords(GENERA[n]):
        for t in catalog(GENERA[n]):
            assert apply(t, image[c]) is image[apply(t, c)], (t.token, c)
        assert polar(image[c]) is image[polar(c)], c


@genera
@operations
def test_region_member_sets_map_onto_member_sets(n, op):
    image = _on_chords(n, op)
    for kind in RegionKind:
        for c in all_chords(GENERA[n]):
            members = {image[m] for m in region_of(c, kind).members}
            assert members == set(region_of(image[c], kind).members), (kind, c)


@genera
@operations
def test_parent_cell_and_note_map_and_inversion_flips_the_direction(n, op):
    on_pc, flips = PC_OPERATIONS[op]
    image = _on_chords(n, op)
    for c in all_chords(GENERA[n]):
        cell, note, direction = parent_symmetric_cell(c)
        mapped = parent_symmetric_cell(image[c])
        assert mapped.cell == {on_pc(p) for p in cell}, c
        assert mapped.note == on_pc(note), c
        assert mapped.direction is (FLIPPED[direction] if flips else direction), c


@genera
@operations
def test_voice_leading_and_the_connecting_transformation_are_invariant(n, op):
    image = _on_chords(n, op)
    chords = all_chords(GENERA[n])
    for a in chords:
        for b in chords:
            assert vl_relation(image[a], image[b]) == vl_relation(a, b), (a, b)
            assert transformation_between(image[a], image[b]) is transformation_between(a, b), (a, b)


def _canonical(cycle):
    """A cycle of ids in the walk's one reading: from its smallest id,
    toward the smaller of that id's two neighbours."""
    i = cycle.index(min(cycle))
    c = cycle[i:] + cycle[:i]
    return c if c[1] < c[-1] else c[:1] + c[:0:-1]


@genera
@operations
def test_smooth_cycles_map_onto_the_image_regions_cycles(n, op):
    # through a permutation of ids, so that no SmoothCycle is built
    image = _on_chords(n, op)
    for region in bridge_regions(GENERA[n]):
        chords, cycles = smooth_cycle_ids(region)
        image_chords, image_cycles = smooth_cycle_ids(region_of(image[chords[0]], RegionKind.BRIDGE))
        to_image_id = [image_chords.index(image[c]) for c in chords]
        mapped = {_canonical(tuple(to_image_id[i] for i in cycle)) for cycle in cycles}
        assert len(mapped) == len(cycles) == len(image_cycles), region.id
        assert mapped == set(image_cycles), region.id


def _edges(region):
    """Each exported edge as (its two chords, token, relation)."""
    by_name = {c.name(): c for c in region.members}
    return {
        (frozenset({by_name[e["a"]], by_name[e["b"]]}), e["transform"], tuple(e["relation"]))
        for e in json.loads(export_graph(region, "json"))["edges"]
    }


@genera
@operations
def test_exported_edges_map_with_their_tokens(n, op):
    image = _on_chords(n, op)
    g = GENERA[n]
    for region in (*arthropod_regions(g), *bridge_regions(g)):
        mapped = {(frozenset(image[c] for c in ends), *rest) for ends, *rest in _edges(region)}
        assert mapped == _edges(region_of(image[region.members[0]], region.kind)), (region.kind, region.id)
