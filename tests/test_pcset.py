import pytest
from hypothesis import given
from hypothesis import strategies as st

import nearsym
import nearsym.pcset
from nearsym.pcset import (
    FORTE_NAMES,
    interval_class_vector,
    invert,
    prime_form,
    set_class,
    transpose,
)
from oracles import icv_oracle, prime_form_oracle

pc_sets = st.frozensets(st.integers(min_value=0, max_value=11), max_size=12)
nonempty_pc_sets = st.frozensets(st.integers(min_value=0, max_value=11), min_size=1, max_size=12)


def test_transpose_examples():
    assert transpose({0, 4, 7}, 0) == {0, 4, 7}
    assert transpose({0, 4, 8}, 1) == {1, 5, 9}
    assert transpose({0, 2, 4, 6, 8, 10}, 1) == {1, 3, 5, 7, 9, 11}


def test_invert_examples():
    assert invert({0}, 0) == {0}
    assert invert({0, 4, 7}, 0) == {0, 5, 8}
    # the Wozzeck template maps to a transposed mystic chord
    assert invert({0, 1, 4, 6, 8, 10}, 0) == {0, 2, 4, 6, 8, 11}


def test_prime_form_examples():
    assert set_class({0, 4, 8}) == ((0, 4, 8), "3-12")
    assert set_class({0, 3, 4, 7, 8, 11}) == ((0, 1, 4, 5, 8, 9), "6-20")
    assert set_class({0, 2, 6, 8}) == ((0, 2, 6, 8), "4-25")


def test_prime_form_unnamed_class():
    assert set_class({0, 1, 2}) == ((0, 1, 2), None)


def test_prime_form_of_empty_set_is_an_error():
    with pytest.raises(ValueError):
        prime_form(())
    for _ in range(2):  # the set-class memo stores no exception
        with pytest.raises(ValueError):
            set_class(frozenset())


def test_interval_class_vector_examples():
    assert interval_class_vector(()) == (0, 0, 0, 0, 0, 0)
    assert interval_class_vector({0, 1, 3, 5, 7, 9}) == (1, 4, 2, 4, 2, 2)
    assert interval_class_vector({0, 2, 4, 6, 8, 10}) == (0, 6, 0, 6, 0, 3)


def test_forte_table_entries_are_their_own_prime_forms():
    for prime in FORTE_NAMES:
        assert prime_form(prime) == prime


# The interval-class vector of each labelled class, as published in Forte,
# The Structure of Atonal Music (1973).
PUBLISHED_ICVS = {
    "3-11": (0, 0, 1, 1, 1, 0),
    "3-12": (0, 0, 0, 3, 0, 0),
    "4-21": (0, 3, 0, 2, 0, 1),
    "4-24": (0, 2, 0, 3, 0, 1),
    "4-25": (0, 2, 0, 2, 0, 2),
    "4-27": (0, 1, 2, 1, 1, 1),
    "4-28": (0, 0, 4, 0, 0, 2),
    "6-20": (3, 0, 3, 6, 3, 0),
    "6-34": (1, 4, 2, 4, 2, 2),
    "6-35": (0, 6, 0, 6, 0, 3),
    "8-28": (4, 4, 8, 4, 4, 4),
    "12-1": (12, 12, 12, 12, 12, 6),
}


def test_each_forte_label_names_the_class_with_its_published_vector():
    # no two of these classes share a vector, so a label moved to another
    # prime form, or a mistyped prime form, no longer matches
    assert sorted(FORTE_NAMES.values()) == sorted(PUBLISHED_ICVS)
    for prime, name in FORTE_NAMES.items():
        assert icv_oracle(prime) == PUBLISHED_ICVS[name], name


@given(pc_sets, st.integers(-30, 30), st.integers(-30, 30))
def test_transpose_composes(s, a, b):
    assert transpose(transpose(s, a), b) == transpose(s, a + b)


@given(pc_sets, st.integers(0, 11))
def test_invert_is_an_involution(s, axis):
    assert invert(invert(s, axis), axis) == s


@given(nonempty_pc_sets, st.integers(0, 11), st.integers(0, 11))
def test_prime_form_is_ti_invariant(s, t, axis):
    assert prime_form(s) == prime_form(transpose(s, t)) == prime_form(invert(s, axis))


@given(pc_sets, st.integers(0, 11), st.integers(0, 11))
def test_icv_is_ti_invariant(s, t, axis):
    icv = interval_class_vector(s)
    assert icv == interval_class_vector(transpose(s, t))
    assert icv == interval_class_vector(invert(s, axis))


def test_set_class_memo_matches_prime_form_on_every_set():
    sets = [frozenset(p for p in range(12) if mask >> p & 1) for mask in range(1, 1 << 12)]
    assert len(sets) == 4095
    for s in sets:
        prime = prime_form(s)
        expected = (prime, FORTE_NAMES.get(prime))
        assert set_class(s) == expected  # first call fills the memo
        assert set_class(s) == expected  # a repeat call reads it


def test_set_class_normalises_before_the_memo():
    expected = set_class(frozenset({0, 4, 7}))
    assert set_class([12, 16, 19]) == expected
    assert set_class((-12, 4, 7)) == expected
    assert set_class([7, 4, 0, 12]) == expected


def test_kernels_match_their_oracles_on_every_set():
    for mask in range(1, 1 << 12):
        s = frozenset(p for p in range(12) if mask >> p & 1)
        assert prime_form(s) == prime_form_oracle(s), sorted(s)
        assert interval_class_vector(s) == icv_oracle(s), sorted(s)


def test_package_attribute_pcset_is_the_module():
    assert nearsym.pcset.prime_form is nearsym.prime_form
    assert nearsym.pcset.pcset([13, -1]) == {1, 11}
