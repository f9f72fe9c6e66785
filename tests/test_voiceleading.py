import pytest

from nearsym import voiceleading
from nearsym.chord import all_chords, genus, parse_chord
from nearsym.errors import GenusMismatchError
from nearsym.voiceleading import VoiceLeading, ssd_neighbors, vl_relation

G3, G4, G6 = genus(3), genus(4), genus(6)


def test_relation_examples():
    assert vl_relation(parse_chord("C+", G3), parse_chord("A-", G3)) == (0, 1)
    assert vl_relation(parse_chord("C+", G3), parse_chord("C#-", G3)) == (2, 0)
    assert vl_relation(parse_chord("C+", G6), parse_chord("C-", G6)) == (4, 0)


def test_identity_relation():
    for g in (G3, G4, G6):
        for c in all_chords(g):
            assert vl_relation(c, c) == VoiceLeading(0, 0)


def test_relation_is_symmetric():
    for g in (G3, G4, G6):
        universe = all_chords(g)
        for x in universe:
            for y in universe:
                assert vl_relation(x, y) == vl_relation(y, x)


def test_relation_prefers_the_parsimonious_reading():
    # one whole-tone move and a pair of parallel semitone moves both bridge
    # these hexachords at total displacement two; the semitone reading wins
    assert vl_relation(parse_chord("C+", G6), parse_chord("C#-", G6)) == (2, 0)


def test_unrelated_chords_return_none():
    assert vl_relation(parse_chord("C+", G3), parse_chord("F#+", G3)) is None


def test_genus_mismatch_is_an_error():
    with pytest.raises(GenusMismatchError):
        vl_relation(parse_chord("C+", G3), parse_chord("C+", G4))


def test_ssd_neighbors_of_a_major_triad():
    assert set(ssd_neighbors(parse_chord("C+", G3))) == {
        parse_chord("C-", G3),
        parse_chord("E-", G3),
    }


def test_ssd_neighbors_are_exactly_the_single_semitone_relations():
    for g in (G3, G4, G6):
        universe = all_chords(g)
        for x in universe:
            neighbors = set(ssd_neighbors(x))
            related = {y for y in universe if vl_relation(x, y) == (1, 0)}
            assert neighbors == related


def test_only_triads_have_ssd_neighbors():
    for g in (G4, G6):
        for c in all_chords(g):
            assert ssd_neighbors(c) == ()
    for c in all_chords(G3):
        assert len(ssd_neighbors(c)) == 2


def test_label():
    assert VoiceLeading(2, 0).label == "P2,0"
    assert VoiceLeading(0, 1).label == "P0,1"


def test_relation_scans_once_per_modality_pair_and_root_difference():
    # 3 genera x 2 x 2 modalities x 12 root differences: 144 scans serve all
    # 1,728 same-genus pairs, called past vl_relation's own cache
    voiceleading._relation.cache_clear()
    for g in (G3, G4, G6):
        universe = all_chords(g)
        for x in universe:
            for y in universe:
                vl_relation.__wrapped__(x, y)
    info = voiceleading._relation.cache_info()
    assert info.hits + info.misses == 1728
    assert info.misses <= 144
