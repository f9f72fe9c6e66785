import copy
import dataclasses
import pickle
import re
from functools import partial

import pytest

from nearsym import cli, region, transform
from nearsym.chord import all_chords, genus, parent_symmetric_cell, parse_chord
from nearsym.errors import ForeignTokenError, GenusMismatchError, InvariantViolationError, TokenParseError
from nearsym.region import arthropod_members, bridge_members
from nearsym.transform import (
    Kind,
    Transformation,
    apply,
    apply_sequence,
    catalog,
    transformation,
    transformation_between,
)
from nearsym.verify import run_checks
from nearsym.voiceleading import VoiceLeading, catalog_relation, ssd_neighbors, vl_relation

from conftest import clear_caches

G3, G4, G6 = genus(3), genus(4), genus(6)
ALL_GENERA = (G3, G4, G6)


def tokens(g, kind=None):
    return [t.token for t in catalog(g) if kind is None or t.kind is kind]


# Each genus's tokens in catalog order, as the paper names them.
TOKENS = {
    3: ["R", "S", "N", "P", "L", "H"],
    4: ["R*", "S3(4)", "S3(2)", "S6", "S2", "S4", "S5", "O"],
    6: ["R**", "SA(3)", "SA(5)", "SF", "SW(1)", "SW(3)", "S1", "S3(A)", "S3(W)", "S5(A)", "S5(F)", "Z"],
}


def test_catalog_contents():
    for g in ALL_GENERA:
        assert tokens(g) == TOKENS[g.n]


def test_the_catalog_facts_the_hot_path_reads():
    # polar reads the pole as the catalog's last token, and ssd_neighbors
    # applies the bridge slides of n=3 only, as the P1,0 tokens
    for g in ALL_GENERA:
        cat = catalog(g)
        assert [t for t in cat if t.kind is Kind.POLAR] == [cat[-1]]
        semitone = [t for t in cat if catalog_relation(t) == (1, 0)]
        assert semitone == [t for t in cat if g.n == 3 and t.kind is Kind.BRIDGE_SLIDE]
    assert tokens(G3, Kind.BRIDGE_SLIDE) == ["P", "L"]


def test_catalog_kind_counts():
    for g, slides in ((G3, 2), (G4, 3), (G6, 5)):
        assert len(tokens(g, Kind.RELATIVE)) == 1
        assert len(tokens(g, Kind.POLAR)) == 1
        assert len(tokens(g, Kind.ARTHROPOD_SLIDE)) == slides
        assert len(tokens(g, Kind.BRIDGE_SLIDE)) == slides


def test_token_parsing_accepts_superscript_and_full_spellings():
    assert transformation("S^{3(4)}", G4).token == "S3(4)"
    assert transformation("S^{A(3)}", G6).token == "SA(3)"
    assert transformation("s^{a(3)}", G6).token == "SA(3)"
    # a one-character part
    assert transformation("S^{6}", G4).token == "S6"
    assert transformation("S^{1}", G6).token == "S1"
    assert transformation("S6(5)", G4).token == "S6"
    assert transformation("S1(W)", G6).token == "S1"
    assert transformation("r**", G6).token == "R**"


# The six slides whose moved part is forced, spelled in full, and the token
# each one names.
FULL_FORMS = {"S6(5)": "S6", "S2(3)": "S2", "S4(3)": "S4", "S5(6)": "S5", "SF(5)": "SF", "S1(W)": "S1"}
# A full spelling of no catalog slide names nothing.
NOT_FULL_FORMS = ["S(5)", "N(3)", "SA(3)(3)", "S3(4)(3)", "S6(4)"]
NAMES = {**{t: t for ts in TOKENS.values() for t in ts}, **FULL_FORMS}


def _spellings(name):
    """The name flat and lower-case, and an S token also as S^{...}."""
    superscript = [f"S^{{{name[1:]}}}"] if name.startswith("S") and len(name) > 1 else []
    return [name, name.lower(), *superscript]


SPELLINGS = [(text, token) for name, token in NAMES.items() for text in _spellings(name)]
SPELLINGS += [(text, None) for text in NOT_FULL_FORMS]


@pytest.mark.parametrize(("text", "token"), SPELLINGS, ids=[text for text, _ in SPELLINGS])
def test_every_spelling_names_its_row_in_its_genus_only(text, token):
    # in its own genus a spelling gives the catalog row; in another genus it
    # is foreign and the error names the token; a spelling of no row is
    # unknown in every genus
    home = next((n for n, ts in TOKENS.items() if token in ts), None)
    for g in ALL_GENERA:
        if g.n == home:
            assert transformation(text, g) is catalog(g)[TOKENS[home].index(token)]
            continue
        if token is None:
            error, message = TokenParseError, f"unknown transformation token: {text!r}"
        else:
            error = ForeignTokenError
            message = f"transformation {token!r} belongs to the n={home} genus, not n={g.n}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            transformation(text, g)


@pytest.mark.parametrize("text", ["}S{", "S^{", "S^{3(4)", "S^{}", "S^{3(4)}}", "S3(^4)"])
def test_malformed_superscript_tokens_are_rejected(text):
    # only the whole wrapped form S^{...} may carry ^, { or }
    with pytest.raises(TokenParseError, match="malformed superscript token"):
        transformation(text, G4)


def test_token_errors():
    with pytest.raises(GenusMismatchError):
        transformation("Z", G3)  # real token, wrong genus
    with pytest.raises(TokenParseError):
        transformation("Q7", G3)


def _apply(token, chord_text, g):
    return str(apply(transformation(token, g), parse_chord(chord_text, g)))


def _assert_both_legs(g, images):
    # each token sends C+ up its offset to the image, and the image, a (-)
    # chord, back down the same offset to C+
    for token, image in images.items():
        assert _apply(token, "C+", g) == image, token
        assert _apply(token, image, g) == "C+", token


def test_triad_transformations():
    _assert_both_legs(G3, {"R": "A-", "S": "C#-", "N": "F-", "P": "C-", "L": "E-", "H": "G#-"})


def test_seventh_transformations():
    _assert_both_legs(G4, {
        "R*": "E-", "S3(4)": "G-", "S3(2)": "C#-", "S6": "A#-",
        "S2": "C-", "S4": "F#-", "S5": "A-", "O": "D#-",
    })


def test_hexachord_transformations():
    _assert_both_legs(G6, {
        "R**": "D#-", "SA(3)": "B-", "SA(5)": "G-", "SF": "A-", "SW(1)": "C#-", "SW(3)": "F-",
        "S1": "C-", "S3(A)": "A#-", "S3(W)": "E-", "S5(A)": "F#-", "S5(F)": "G#-", "Z": "D-",
    })


def test_every_transformation_swaps_modality():
    for g in ALL_GENERA:
        for t in catalog(g):
            for c in all_chords(g):
                assert apply(t, c).modality is not c.modality


# Each token's voice-leading as the paper states it, (semitones, whole tones):
# relatives move one voice a whole tone, arthropod slides two voices a
# semitone, bridge slides n-2 voices a semitone, poles all n voices.
PAPER_RELATIONS = {
    3: {"R": (0, 1), "S": (2, 0), "N": (2, 0), "P": (1, 0), "L": (1, 0), "H": (3, 0)},
    4: {"R*": (0, 1), "S3(4)": (2, 0), "S3(2)": (2, 0), "S6": (2, 0),
        "S2": (2, 0), "S4": (2, 0), "S5": (2, 0), "O": (4, 0)},
    6: {"R**": (0, 1), "SA(3)": (2, 0), "SA(5)": (2, 0), "SF": (2, 0), "SW(1)": (2, 0),
        "SW(3)": (2, 0), "S1": (4, 0), "S3(A)": (4, 0), "S3(W)": (4, 0), "S5(A)": (4, 0),
        "S5(F)": (4, 0), "Z": (6, 0)},
}


def test_relation_conformance():
    for g in ALL_GENERA:
        assert {t.token: catalog_relation(t) for t in catalog(g)} == PAPER_RELATIONS[g.n]
        for t in catalog(g):
            for c in all_chords(g):
                image = apply(t, c)
                if t.kind is Kind.RELATIVE:
                    assert vl_relation(c, image) == VoiceLeading(0, 1)
                elif t.kind is Kind.ARTHROPOD_SLIDE:
                    assert vl_relation(c, image) == VoiceLeading(2, 0)
                elif t.kind is Kind.BRIDGE_SLIDE:
                    assert vl_relation(c, image) == VoiceLeading(g.n - 2, 0)
                else:
                    # poles move every voice a semitone onto a disjoint chord
                    assert not (c.pitch_classes() & image.pitch_classes())
                    assert vl_relation(c, image) == VoiceLeading(g.n, 0)


def test_region_closure():
    for g in ALL_GENERA:
        for t in catalog(g):
            for c in all_chords(g):
                image = apply(t, c)
                if t.kind in (Kind.RELATIVE, Kind.ARTHROPOD_SLIDE):
                    assert parent_symmetric_cell(image).cell == parent_symmetric_cell(c).cell
                else:
                    assert (image.root - c.root) % (12 // g.n) == 0


def test_catalog_covers_both_regions_without_collisions():
    for g in ALL_GENERA:
        for c in all_chords(g):
            images = [apply(t, c) for t in catalog(g)]
            assert len(set(images)) == 2 * g.n
            expected = {
                m
                for m in (*arthropod_members(c), *bridge_members(c))
                if m.modality is not c.modality
            }
            assert set(images) == expected


def test_transformation_between():
    assert transformation_between(parse_chord("C+", G3), parse_chord("A-", G3)).token == "R"
    assert transformation_between(parse_chord("C+", G4), parse_chord("F#-", G4)).token == "S4"
    assert transformation_between(parse_chord("C+", G3), parse_chord("E+", G3)) is None
    with pytest.raises(GenusMismatchError):
        transformation_between(parse_chord("C+", G3), parse_chord("C+", G4))


def test_transformation_between_inverts_apply_everywhere():
    for g in ALL_GENERA:
        for t in catalog(g):
            for c in all_chords(g):
                assert transformation_between(c, apply(t, c)) == t


@pytest.mark.parametrize(
    ("n", "source", "image", "token"),
    [(3, "C+", "A-", "R"), (4, "C+", "E-", "R*"), (6, "C+", "D#-", "R**")],
)
def test_transformation_between_scans_the_catalog_once_per_pair(
    fresh_caches, monkeypatch, n, source, image, token
):
    # a pair's first call applies each catalog token once; a repeat is a
    # cache hit that applies none and returns the same object
    g = genus(n)
    applied = []
    cached_apply = transform.apply

    def counting_apply(t, c):
        applied.append(t)
        return cached_apply(t, c)

    monkeypatch.setattr(transform, "apply", counting_apply)
    x, y = parse_chord(source, g), parse_chord(image, g)
    first = transformation_between(x, y)
    assert first.token == token
    assert len(applied) == len(catalog(g))
    applied.clear()
    assert transformation_between(x, y) is first
    assert applied == []


def test_transformation_between_raises_again_on_every_call(triad_offsets):
    # S given N's offset: two tokens connect C+ to F-; neither that nor a
    # genus mismatch is remembered
    triad_offsets(S=5)
    c, f = parse_chord("C+", G3), parse_chord("F-", G3)
    culprits = re.escape("2 transformations connect C+ to F-: ['S', 'N']")
    size = transformation_between.cache_info().currsize
    for _ in range(2):
        with pytest.raises(InvariantViolationError, match=f"^{culprits}$"):
            transformation_between(c, f)
        with pytest.raises(GenusMismatchError, match=re.escape("cannot compare C+ (n=3) with C+ (n=4)")):
            transformation_between(c, parse_chord("C+", G4))
    assert transformation_between.cache_info().currsize == size


def test_apply_sequence():
    c = parse_chord("C+", G3)
    assert apply_sequence(c, []) == c
    p = transformation("P", G3)
    assert apply_sequence(c, [p, p]) == c
    rsn = [transformation(tok, G3) for tok in ("R", "S", "N")]
    assert str(apply_sequence(c, rsn)) == "C#-"
    s1z = [transformation(tok, G6) for tok in ("S1", "Z")]
    assert str(apply_sequence(parse_chord("C+", G6), s1z)) == "A#+"


def test_apply_rejects_genus_mismatch():
    with pytest.raises(GenusMismatchError):
        apply(transformation("R", G3), parse_chord("C+", G4))


@pytest.fixture
def catalog_offsets(monkeypatch, fresh_caches):
    """Gives the named tokens of genus n new root offsets, with cleared caches."""

    def patch(n, **offsets):
        rows = tuple((*row[:-1], offsets.get(row[0], row[-1])) for row in transform._ROWS[n])
        monkeypatch.setitem(transform._ROWS, n, rows)
        clear_caches()

    return patch


@pytest.fixture
def triad_offsets(catalog_offsets):
    """Gives the named n=3 tokens new root offsets, with cleared caches."""
    return partial(catalog_offsets, 3)


def _failed(n):
    return {r.line() for r in run_checks(n) if not r.passed}


def test_slide_oracle_catches_a_wrong_offset(triad_offsets):
    # S and N are both arthropod slides with P2,0 voice-leading, so swapping
    # their offsets keeps every other claim true; only the partition-and-shift
    # re-derivation can tell them apart.
    triad_offsets(S=5, N=1)
    assert _apply("S", "C+", G3) == "F-"
    assert _failed(3) == {"FAIL slide-labels [n=3]: (S, C+)"}


@pytest.mark.parametrize(
    ("token", "offset", "builder", "culprit"),
    [
        # S given P's offset sends each (+) chord to its bridge-region partner
        ("S", 0, region.arthropod_regions, "S sends E+ to E-"),
        # P given S's offset sends each (+) chord to its arthropod-region partner
        ("P", 1, region.bridge_regions, "P sends C+ to C#-"),
    ],
    ids=["arthropod", "bridge"],
)
def test_an_offset_leaving_its_region_stops_the_region_builder(
    triad_offsets, token, offset, builder, culprit
):
    triad_offsets(**{token: offset})
    with pytest.raises(InvariantViolationError, match=re.escape(f"{culprit}, outside its region")):
        builder(G3)


def test_two_tokens_with_one_offset_fail_degrees_and_coverage(triad_offsets):
    # S given N's offset doubles each (+) chord's N edge and drops its S edge
    triad_offsets(S=5)
    # every waterbug member is left 2 neighbours; C+ is the first chord two
    # tokens send to one image (F-)
    assert {
        "FAIL region-degrees [n=3]: waterbug region 0",
        "FAIL catalog-coverage [n=3]: C+",
    } <= _failed(3)
    # outside verify the library stays loud about the two tokens
    culprits = re.escape("2 transformations connect C+ to F-: ['S', 'N']")
    with pytest.raises(InvariantViolationError, match=f"^{culprits}$"):
        transformation_between(parse_chord("C+", G3), parse_chord("F-", G3))


# A same-kind pair of tokens with their offsets swapped keeps every count,
# relation and region claim true: each one gives one FAIL line, the
# slide-labels re-derivation on the pair's first token at C+.
OFFSET_SWAPS = [
    (3, "S", "N", "FAIL slide-labels [n=3]: (S, C+)"),
    (3, "P", "L", "FAIL slide-labels [n=3]: (P, C+)"),
    (4, "S3(4)", "S3(2)", "FAIL slide-labels [n=4]: (S3(4), C+)"),
    (4, "S3(4)", "S6", "FAIL slide-labels [n=4]: (S3(4), C+)"),
    (4, "S3(2)", "S6", "FAIL slide-labels [n=4]: (S3(2), C+)"),
    (4, "S2", "S4", "FAIL slide-labels [n=4]: (S2, C+)"),
    (4, "S2", "S5", "FAIL slide-labels [n=4]: (S2, C+)"),
    (4, "S4", "S5", "FAIL slide-labels [n=4]: (S4, C+)"),
]


@pytest.mark.parametrize(
    ("n", "first", "second", "line"), OFFSET_SWAPS, ids=[f"{n}-{a}/{b}" for n, a, b, _ in OFFSET_SWAPS]
)
def test_a_same_kind_offset_swap_fails_only_slide_labels(catalog_offsets, n, first, second, line):
    offsets = {t.token: t.offset for t in catalog(genus(n))}
    catalog_offsets(n, **{first: offsets[second], second: offsets[first]})
    assert [r.line() for r in run_checks(n) if not r.passed] == [line]


# The first token of each kind, its offset one semitone up.  The region
# builders refuse each but the pole's, and that message, which names the
# token and the move, is the FAIL line of every claim that reads a region.
WRONG_OFFSETS = [
    (3, "R", 10, "FAIL arthropod-partition [n=3]: R sends E+ to D-, outside its region"),
    (3, "S", 2, "FAIL arthropod-partition [n=3]: S sends E+ to F#-, outside its region"),
    (3, "P", 1, "FAIL bridge-partition [n=3]: P sends C+ to C#-, outside its region"),
    (3, "H", 9, "FAIL relation-conformance [n=3]: (H, C+)"),
    (4, "R*", 5, "FAIL arthropod-partition [n=4]: R* sends B+ to E-, outside its region"),
    (4, "S3(4)", 8, "FAIL arthropod-partition [n=4]: S3(4) sends B+ to G-, outside its region"),
    (4, "S2", 1, "FAIL bridge-partition [n=4]: S2 sends C+ to C#-, outside its region"),
    (4, "O", 4, "FAIL relation-conformance [n=4]: (O, C+)"),
    (6, "R**", 4, "FAIL arthropod-partition [n=6]: R** sends A#+ to D-, outside its region"),
    (6, "SA(3)", 0, "FAIL arthropod-partition [n=6]: SA(3) sends A#+ to A#-, outside its region"),
    (6, "S1", 1, "FAIL bridge-partition [n=6]: S1 sends C+ to C#-, outside its region"),
    (6, "Z", 3, "FAIL relation-conformance [n=6]: (Z, C+)"),
]


@pytest.mark.parametrize(
    ("n", "token", "offset", "first"), WRONG_OFFSETS, ids=[f"{n}-{t}={o}" for n, t, o, _ in WRONG_OFFSETS]
)
def test_verify_names_a_wrong_offset_of_each_kind_without_raising(catalog_offsets, n, token, offset, first):
    catalog_offsets(n, **{token: offset})
    results = run_checks(n)
    # every claim reports, the seven before the first region-reading one pass
    assert len(results) == 24
    assert all(r.passed for r in results[:7])
    assert [r.line() for r in results if not r.passed][0] == first


# A wrong edge offset at n=3 for one token of each region kind, and every
# FAIL line it gives.  Only the claims that read that kind's regions carry
# its builder's message; region-degrees covers both kinds, and every claim
# of the other kind passes.
ONE_KIND_WRONG = {
    "R": (10, [
        "FAIL arthropod-partition [n=3]: R sends E+ to D-, outside its region",
        "FAIL arthropod-counting [n=3]: R sends E+ to D-, outside its region",
        "FAIL relation-conformance [n=3]: (R, C+)",
        "FAIL region-closure [n=3]: (R, C+)",
        "FAIL catalog-coverage [n=3]: C+",
        "FAIL region-degrees [n=3]: R sends E+ to D-, outside its region",
    ]),
    "P": (1, [
        "FAIL bridge-partition [n=3]: P sends C+ to C#-, outside its region",
        "FAIL bridge-counting [n=3]: P sends C+ to C#-, outside its region",
        "FAIL relation-conformance [n=3]: (P, C+)",
        "FAIL region-closure [n=3]: (P, C+)",
        "FAIL slide-labels [n=3]: (P, C+)",
        "FAIL catalog-coverage [n=3]: C+",
        "FAIL bridge-pitch-unions [n=3]: P sends C+ to C#-, outside its region",
        "FAIL region-degrees [n=3]: P sends C+ to C#-, outside its region",
        "FAIL graph-shape [n=3]: P sends C+ to C#-, outside its region",
        "FAIL cycle-counts [n=3]: P sends C+ to C#-, outside its region",
        "FAIL cycle-structure [n=3]: P sends C+ to C#-, outside its region",
    ]),
}


@pytest.mark.parametrize("token", ONE_KIND_WRONG)
def test_a_wrong_offset_fails_only_the_claims_that_read_its_region_kind(triad_offsets, token):
    offset, lines = ONE_KIND_WRONG[token]
    triad_offsets(**{token: offset})
    assert [r.line() for r in run_checks(3) if not r.passed] == lines


def test_verify_prints_every_line_for_a_wrong_offset_while_library_callers_raise(
    triad_offsets, capsys
):
    triad_offsets(P=1)
    assert cli.main(["verify", "--genus", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 25 and out[-1].startswith("24 checks, ")
    assert "FAIL bridge-partition [n=3]: P sends C+ to C#-, outside its region" in out
    # an invariant violation outside verify stays loud
    for argv in (
        ["region", "--genus", "3", "--kind", "bridge"],
        ["export", "--genus", "3", "--kind", "bridge", "--containing", "C+"],
        ["cycles", "--genus", "3", "--containing", "C+"],
    ):
        with pytest.raises(InvariantViolationError, match="P sends C\\+ to C#-"):
            cli.main(argv)


def test_ssd_neighbors_follow_a_changed_bridge_slide_offset(triad_offsets):
    # filled before the tamper: the cache must not answer for the old offsets
    c = parse_chord("C+", G3)
    assert [str(x) for x in ssd_neighbors(c)] == ["C-", "E-"]
    triad_offsets(P=1)
    assert [str(x) for x in ssd_neighbors(c)] == ["C#-", "E-"]
    triad_offsets(P=0, L=3)
    assert [str(x) for x in ssd_neighbors(c)] == ["C-", "D#-"]


def test_rebuilt_transformations_equal_and_hash_like_the_catalog():
    for g in ALL_GENERA:
        for t in catalog(g):
            rebuilt = dataclasses.replace(t)
            assert rebuilt is t
            assert rebuilt == t
            assert hash(rebuilt) == hash(t)
            # equality still compares every field, the offset too
            assert dataclasses.replace(t, offset=t.offset + 1) != t


def test_transformation_hash_agrees_with_equality():
    everything = [t for g in ALL_GENERA for t in catalog(g)]
    for t in everything:
        for u in everything:
            assert (t == u) == (t is u)
            if t == u:
                assert hash(t) == hash(u)
    assert len({hash(t) for t in everything}) == len(everything) == 26
    # the hash is object's, and no dataclass field holds one
    assert [f.name for f in dataclasses.fields(transform.Transformation)] == [
        "genus", "token", "kind", "invariant", "moved", "offset"
    ]


def test_copies_of_a_transformation_are_the_transformation():
    # one object per field tuple: equality is identity, and the hash is object's
    assert Transformation.__eq__ is object.__eq__ and Transformation.__hash__ is object.__hash__
    for g in ALL_GENERA:
        for t in catalog(g):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(t, protocol)) is t
            assert copy.copy(t) is t
            assert copy.deepcopy(t) is t
            assert Transformation(*(getattr(t, f.name) for f in dataclasses.fields(t))) is t
            # a copy with another offset is another transformation, and so is
            # its own copy
            tampered = dataclasses.replace(t, offset=t.offset + 1)
            assert tampered is not t and tampered.offset == t.offset + 1
            assert dataclasses.replace(t, offset=t.offset + 1) is tampered
            assert pickle.loads(pickle.dumps(tampered)) is tampered
