import copy
import dataclasses
import gc
import inspect
import itertools
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearsym.chord
from conftest import clear_caches
from nearsym.chord import (
    GENERA,
    Chord,
    Direction,
    Genus,
    Modality,
    _chord_index,
    all_chords,
    arthropod_collection,
    find_chord,
    genus,
    name_of,
    parent_symmetric_cell,
    parse_chord,
    parse_note,
    perturb,
)
from nearsym.errors import (
    ChordParseError,
    NotAMemberError,
    UnsupportedCardinalityError,
)
from nearsym.pcset import invert
from nearsym.symmetry import symmetric_partition
from nearsym.transform import Transformation, apply, catalog

G3, G4, G6 = genus(3), genus(4), genus(6)


def test_genus_lookup():
    assert G3.plus_name == "major triad"
    assert G4.minus_name == "half-diminished seventh"
    assert G6.plus_template == (0, 1, 4, 6, 8, 10)
    with pytest.raises(UnsupportedCardinalityError):
        genus(5)


def test_pitch_classes():
    assert parse_chord("C+", G6).pitch_classes() == {0, 1, 4, 6, 8, 10}
    assert parse_chord("C-", G6).pitch_classes() == {0, 1, 3, 5, 7, 9}
    assert parse_chord("A-", G3).pitch_classes() == {9, 0, 4}


def test_pitch_classes_lookup_matches_the_template_for_all_72_chords():
    count = 0
    for g in (G3, G4, G6):
        for c in all_chords(g):
            expected = frozenset((c.root + i) % 12 for i in g.template(c.modality))
            assert c.pitch_classes() == expected  # the set the table entry holds
            assert c.pitch_classes() == expected  # a repeat call returns it again
            count += 1
    assert count == 72


def test_name_of():
    assert name_of({0, 1, 4, 6, 8, 10}, G6) == parse_chord("C+", G6)
    assert name_of({11, 2, 4, 6, 8, 10}, G6) == parse_chord("A#+", G6)
    assert name_of({0, 4, 7, 10}, G4) == parse_chord("C+", G4)
    with pytest.raises(NotAMemberError):
        name_of({0, 1, 2}, G3)
    with pytest.raises(NotAMemberError):
        name_of({0, 4, 8}, G3)  # the symmetric cell itself is not a member


def test_hexachord_root_is_lower_note_of_the_semitone_pair():
    for c in all_chords(G6):
        s = c.pitch_classes()
        semitone_roots = [p for p in s if (p + 1) % 12 in s]
        assert semitone_roots == [c.root]


def test_parse_and_render():
    assert str(parse_chord("C+", G3)) == "C+"
    assert str(parse_chord("Bb-", G3)) == "A#-"
    assert parse_chord("F#-", G3) == parse_chord("Gb-", G3)
    assert parse_chord("B♭+", G3) == parse_chord("Bb+", G3)
    assert parse_chord("Bb+", G3).name(flats=True) == "Bb+"
    for c in all_chords(G4):
        assert parse_chord(str(c), G4) == c
        assert parse_chord(c.name(flats=True), G4) == c


@pytest.mark.parametrize("text", ["", "C", "+", "H+", "C#", "Cx+", "C+-"])
def test_parse_rejects_bad_text(text):
    with pytest.raises(ChordParseError):
        parse_chord(text, G3)


# Each accidental spelling and the semitones it moves the letter by.
ACCIDENTALS = {"": 0, "#": 1, "b": -1, "♯": 1, "♭": -1, "##": 2, "bb": -2, "#b": 0, "♯♭♭": -1}
LETTERS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


def test_every_accepted_spelling_parses_to_the_table_entry():
    # 2,268 texts, so the memo also evicts and refills along the way
    texts = 0
    for g in (G3, G4, G6):
        chords = all_chords(g)
        for letter, natural in LETTERS.items():
            for accidental, shift in ACCIDENTALS.items():
                for sign in "+-":
                    expected = chords[2 * ((natural + shift) % 12) + (sign == "-")]
                    for text in (letter + accidental + sign, f" {letter.lower()}{accidental}{sign}\t"):
                        assert parse_chord(text, g) is expected  # the first call may fill the memo
                        assert parse_chord(text, g) is expected  # a repeat call reads it
                        texts += 1
    assert texts == 3 * 7 * len(ACCIDENTALS) * 2 * 2


@pytest.mark.parametrize("text", ["", "C", "+", "H+", "C#", "Cx+", "C+-", " # +", "C #+"])
def test_a_bad_text_raises_the_same_error_again_and_is_not_remembered(text):
    _chord_index.cache_clear()
    with pytest.raises(ChordParseError) as first:
        parse_chord(text, G3)
    with pytest.raises(ChordParseError) as second:
        parse_chord(text, G6)
    assert str(second.value) == str(first.value)
    assert _chord_index.cache_info().currsize == 0


def test_the_parse_memo_is_bounded():
    maxsize = _chord_index.cache_parameters()["maxsize"]
    assert isinstance(maxsize, int) and 0 < maxsize <= 1024
    for pad in range(maxsize + 10):
        assert parse_chord(" " * pad + "C+", G3) is all_chords(G3)[0]
    assert _chord_index.cache_info().currsize == maxsize


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.text(alphabet="ABCDEFGHcbx#♯♭+- \t", max_size=6), st.text(max_size=6)),
    st.sampled_from([G3, G4, G6]),
)
# a well-formed text outside the triads on every run, not only when drawn
@example(" Bb-", G6)
def test_parse_chord_agrees_with_parse_note_and_the_modality_rule(text, g):
    # the unmemoised rule: strip, a final + or -, and a note before it
    s = text.strip()
    try:
        if len(s) < 2 or s[-1] not in ("+", "-"):
            raise ChordParseError(f"chord text must end in '+' or '-': {text!r}")
        try:
            root = parse_note(s[:-1])
        except ChordParseError as error:
            # the note's own error, with the whole text quoted in place of
            # the note part at its end
            head = str(error).rpartition(repr(s[:-1]))[0]
            raise ChordParseError(head + repr(text)) from None
        expected = Chord(g, root, Modality.MINUS if s[-1] == "-" else Modality.PLUS)
    except ChordParseError as error:
        for _ in range(2):
            with pytest.raises(ChordParseError) as raised:
                parse_chord(text, g)
            assert str(raised.value) == str(error)
    else:
        assert parse_chord(text, g) is expected
        assert parse_chord(text, g) is expected


def test_perturb_examples():
    assert perturb({8, 0, 4}, 8, "down") == parse_chord("C+", G3)
    assert perturb({8, 0, 4}, 8, "up") == parse_chord("A-", G3)
    assert perturb({8, 0, 4}, 0, "up") == parse_chord("C#-", G3)
    assert perturb({8, 0, 4}, 0, "down") == parse_chord("E+", G3)
    assert perturb({1, 4, 7, 10}, 1, "up") == parse_chord("E-", G4)
    assert perturb({0, 2, 4, 6, 8, 10}, 2, "down") == parse_chord("C+", G6)
    # a note outside 0..11 names its pitch class
    assert perturb({0, 4, 8}, 16, "down") == parse_chord("G#+", G3)
    assert perturb({0, 4, 8}, -4, "up") == parse_chord("A-", G3)


def test_perturb_rejects_bad_input():
    with pytest.raises(ValueError):
        perturb({8, 0, 4}, 1, "down")  # note outside the cell
    with pytest.raises(ValueError):
        perturb({0, 4, 7}, 0, "down")  # not a symmetric cell
    for cell in ({0, 1, 2}, set()):
        with pytest.raises(ValueError, match="is not a symmetric partition cell"):
            arthropod_collection(cell)


def test_arthropod_collections_partition_each_genus():
    for g in (G3, G4, G6):
        seen = set()
        for cell in symmetric_partition(g.n):
            members = arthropod_collection(cell)
            assert len(members) == 2 * g.n
            assert sum(m.modality is Modality.PLUS for m in members) == g.n
            assert not (seen & set(members))
            seen |= set(members)
        assert seen == set(all_chords(g))


def test_parent_symmetric_cell_examples():
    assert parent_symmetric_cell(parse_chord("C+", G3)) == ({8, 0, 4}, 8, Direction.DOWN)
    assert parent_symmetric_cell(parse_chord("E-", G4)) == ({1, 4, 7, 10}, 1, Direction.UP)
    assert parent_symmetric_cell(parse_chord("C#-", G6)) == (
        {0, 2, 4, 6, 8, 10},
        0,
        Direction.UP,
    )


def test_perturbation_round_trip():
    for g in (G3, G4, G6):
        for c in all_chords(g):
            cell, note, direction = parent_symmetric_cell(c)
            assert perturb(cell, note, direction) == c
        for cell in symmetric_partition(g.n):
            for note in cell:
                for direction in Direction:
                    c = perturb(cell, note, direction)
                    assert parent_symmetric_cell(c) == (cell, note, direction)


def test_direction_matches_modality():
    for g in (G3, G4, G6):
        for c in all_chords(g):
            direction = parent_symmetric_cell(c).direction
            expected = Direction.DOWN if c.modality is Modality.PLUS else Direction.UP
            assert direction is expected


def test_twenty_four_distinct_chords_per_genus():
    for g in (G3, G4, G6):
        universe = all_chords(g)
        assert len(universe) == 24
        assert len({c.pitch_classes() for c in universe}) == 24


def test_opposite_perturbations_are_inversionally_related():
    for g in (G3, G4, G6):
        for cell in symmetric_partition(g.n):
            for note in cell:
                down = perturb(cell, note, "down").pitch_classes()
                up = perturb(cell, note, "up").pitch_classes()
                assert any(invert(down, axis) == up for axis in range(12))


def test_find_chord_returns_none_for_non_members():
    assert find_chord({0, 4, 8}, G3) is None
    assert find_chord({0, 4, 7}, G3) == Chord(G3, 0, Modality.PLUS)


def test_chord_hash_follows_the_reduced_root():
    for g in (G3, G4, G6):
        for c in all_chords(g):
            lifted = Chord(g, c.root + 12, c.modality)
            assert lifted == c
            assert hash(lifted) == hash(c)
    # the hash is no dataclass field, so repr, eq and fields() keep their shape
    assert [f.name for f in dataclasses.fields(Chord)] == ["genus", "root", "modality"]


def test_the_chord_table_holds_chord_root_m_at_twice_root_plus_the_minus_bit():
    for g in (G3, G4, G6):
        table = all_chords(g)
        assert all_chords(g) is table and len(table) == 24
        for root in range(12):
            for m in Modality:
                assert table[2 * root + (m is Modality.MINUS)] == Chord(g, root, m)


def test_lookups_return_the_table_entries_themselves():
    for g in (G3, G4, G6):
        table = all_chords(g)
        for c in table:
            assert parse_chord(c.name(), g) is c
            assert parse_chord(c.name(flats=True), g) is c
            assert find_chord(c.pitch_classes(), g) is c
            for t in catalog(g):
                image = apply(t, c)
                assert image is table[table.index(image)]


def test_the_public_constructor_builds_a_new_equal_chord():
    c = Chord(G6, 14, Modality.MINUS)
    entry = all_chords(G6)[2 * 2 + 1]
    assert c is entry
    assert (c.genus, c.root, c.modality) == (G6, 2, Modality.MINUS)
    assert c == entry and hash(c) == hash(entry)


def test_rebuilt_genus_equals_and_hashes_like_the_original():
    for g in GENERA.values():
        rebuilt = Genus(*(getattr(g, f.name) for f in dataclasses.fields(g)))
        assert rebuilt is g
        assert rebuilt == g
        assert hash(rebuilt) == hash(g)


def test_all_72_chords_hash_apart():
    universe = [c for g in (G3, G4, G6) for c in all_chords(g)]
    assert len(universe) == 72
    assert len({hash(c) for c in universe}) == 72


def test_the_constructor_returns_the_table_entry_for_every_root():
    for g in (G3, G4, G6):
        table = all_chords(g)
        for root in range(-24, 36):
            for m in Modality:
                assert Chord(g, root, m) is table[2 * (root % 12) + (m is Modality.MINUS)]


@pytest.mark.parametrize(
    ("g", "root", "m"),
    [
        (G3, 0, "+"),
        (G3, 0, "-"),
        (G3, 0, None),
        (G3, 2.5, Modality.PLUS),
        (G3, "+", Modality.PLUS),
        (G3, "0", Modality.MINUS),
        (3, 0, Modality.PLUS),
    ],
)
def test_the_constructor_rejects_bad_input(g, root, m):
    # never mapped onto some table entry: "+" is not PLUS, and 2.5 is no root
    with pytest.raises(TypeError):
        Chord(g, root, m)


@pytest.mark.parametrize("g", [3, 3.0, "3", None], ids=repr)
def test_chord_lookups_reject_a_genus_that_is_no_genus(g):
    # 3 and 3.0 share the triad genus's n: neither may build or read a
    # table keyed by itself, as Chord(3, 0, PLUS) already refuses
    before = all_chords.cache_info().currsize
    for lookup in (all_chords, lambda g: parse_chord("C+", g)):
        with pytest.raises(TypeError, match="needs a Genus"):
            lookup(g)
    assert all_chords.cache_info().currsize == before
    # a bad text is named before the genus is read
    with pytest.raises(ChordParseError):
        parse_chord("H+", g)


def test_copies_of_a_chord_are_the_chord():
    # one object per chord: equality is identity, and the hash is object's
    assert Chord.__eq__ is object.__eq__ and Chord.__hash__ is object.__hash__
    for g in (G3, G4, G6):
        for c in all_chords(g):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(c, protocol)) is c
            assert copy.copy(c) is c
            assert copy.deepcopy(c) is c
            assert dataclasses.replace(c) is c
            assert dataclasses.replace(c, root=c.root + 12) is c


def test_copies_of_a_genus_are_the_genus():
    # one object per field tuple: equality is identity, and the hash is object's
    assert Genus.__eq__ is object.__eq__ and Genus.__hash__ is object.__hash__
    for g in (G3, G4, G6):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(g, protocol)) is g
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert dataclasses.replace(g) is g
        assert dataclasses.replace(g, plus_name="x") is not g
        assert dataclasses.replace(g, plus_name="x") != g
        # a change to any one field, templates included, is another genus
        for changed in (
            {"n": g.n + 1},
            {"minus_name": "x"},
            {"plus_template": g.plus_template + (11,)},
            {"minus_template": g.minus_template + (11,)},
        ):
            other = dataclasses.replace(g, **changed)
            assert other is not g and other != g
            assert dataclasses.replace(g, **changed) is other


_TRIALS = itertools.count()


def _first_use(copies, start):
    start.wait()
    seen = []
    for fields in copies:
        g = Genus(*fields)
        seen += [g, parse_chord("C+", g), *all_chords(g), *catalog(g)]
    return seen


def test_threads_that_first_use_a_genus_together_get_one_object_per_value():
    # Each trial makes a copy of each genus that no earlier trial made, with
    # a changed name, so its registry entries, chord table and catalog are
    # first built by threads that meet at a barrier; a tiny switch interval
    # interleaves them.
    threads = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(threads) as pool:
            for _ in range(100):
                trial = next(_TRIALS)
                copies = [
                    (g.n, f"{g.plus_name}, trial {trial}", g.minus_name, g.plus_template, g.minus_template)
                    for g in (G3, G4, G6)
                ]
                start = threading.Barrier(threads, timeout=10)
                futures = [pool.submit(_first_use, copies, start) for _ in range(threads)]
                seen = [future.result(timeout=10) for future in futures]
                for objects in zip(*seen):
                    distinct = {id(x) for x in objects}
                    assert len(distinct) == 1, f"{len(distinct)} objects for {objects[0]!r} in trial {trial}"
    finally:
        sys.setswitchinterval(interval)


def test_the_registry_frees_what_nobody_holds():
    # every object registered now stays held; a genus copy, its chord table
    # and its catalog are held only by the caches, so clearing them frees all
    # 31 and the registry is back at its size from before
    held = list(nearsym.chord._REGISTRY.values())
    g = dataclasses.replace(G3, plus_name="a copy")
    for t in catalog(g):
        for c in all_chords(g):
            apply(t, c)
    del g, t, c
    assert len(nearsym.chord._REGISTRY) == len(held) + 1 + 24 + 6
    clear_caches()
    gc.collect()
    assert len(nearsym.chord._REGISTRY) == len(held)


@pytest.mark.parametrize(
    ("cls", "signature"),
    [
        (
            Genus,
            "(n: 'int', plus_name: 'str', minus_name: 'str', plus_template: 'tuple[int, ...]', "
            "minus_template: 'tuple[int, ...]') -> 'Genus'",
        ),
        (Chord, "(genus: 'Genus', root: 'int', modality: 'Modality') -> 'Chord'"),
        (
            Transformation,
            "(genus: 'Genus', token: 'str', kind: 'Kind', invariant: 'SlidePart' = None, "
            "moved: 'SlidePart' = None, offset: 'int' = 0) -> 'Transformation'",
        ),
    ],
    ids=["Genus", "Chord", "Transformation"],
)
def test_each_registered_class_shows_its_dataclass_signature(cls, signature):
    # inspect and help show the fields, defaults and class, not the
    # (*args, **kwargs) of the registering call
    assert str(inspect.signature(cls)) == signature
