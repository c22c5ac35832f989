"""Tests for exact bit-sequence handling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delcap import (
    BinarySequence,
    CapExceededError,
    all_sequences,
    canonical_form,
    runs,
)
from delcap.bitseq import MAX_LEN


# every length the packing supports, the empty sequence included
texts = st.text(alphabet="01", max_size=MAX_LEN)


@st.composite
def sequences(draw):
    length = draw(st.integers(0, MAX_LEN))
    return BinarySequence.from_numeral(draw(st.integers(0, (1 << length) - 1)), length)


def test_from_string_round_trip():
    for text in ["0", "1", "0101", "00101011", "1" * 63]:
        s = BinarySequence.from_string(text)
        assert s.to_string() == text
        assert str(s) == text
        assert len(s) == len(text)


def test_from_numeral_round_trip():
    s = BinarySequence.from_numeral(5, 4)
    assert s.to_string() == "0101"
    assert s.bits == 5
    for length in (1, 3, 8):
        for value in range(2**length):
            assert BinarySequence.from_numeral(value, length).bits == value


@given(texts)
def test_string_numeral_round_trip_property(text):
    s = BinarySequence.from_string(text)
    assert s.to_string() == text
    assert s.bits == (int(text, 2) if text else 0)
    assert BinarySequence.from_numeral(s.bits, len(text)) == s
    assert [s.bit(i) for i in range(len(text))] == [int(ch) for ch in text]


def test_empty_sequence():
    s = BinarySequence(0, 0)
    assert len(s) == 0
    assert s.to_string() == ""
    assert s.bits == 0


def test_bit_and_iteration_order():
    s = BinarySequence.from_string("0110")
    assert [s.bit(i) for i in range(4)] == [0, 1, 1, 0]
    assert list(s) == [0, 1, 1, 0]


def test_length_cap():
    BinarySequence.from_string("1" * 63)
    with pytest.raises(CapExceededError):
        BinarySequence.from_string("1" * 64)
    with pytest.raises(CapExceededError):
        BinarySequence(0, -1)


def test_padding_validation():
    # bits outside the declared length must not be set
    with pytest.raises(ValueError):
        BinarySequence(0b1000, 3)
    with pytest.raises(ValueError):
        BinarySequence.from_numeral(8, 3)


def test_from_string_rejects_junk():
    for text in ["012", "ab", "0 1"]:
        with pytest.raises(ValueError):
            BinarySequence.from_string(text)


def test_canonical_form_examples():
    assert canonical_form(BinarySequence.from_string("1010")).to_string() == "0101"
    assert canonical_form(BinarySequence.from_string("0101")).to_string() == "0101"
    assert canonical_form(BinarySequence.from_string("1110")).to_string() == "0001"


@given(sequences())
def test_canonical_form_is_orbit_minimum_and_invariant(s):
    text = s.to_string()
    flipped = text.translate(str.maketrans("01", "10"))
    orbit = (text, flipped, text[::-1], flipped[::-1])
    rep = canonical_form(s)
    assert rep.bits == min(int(t or "0", 2) for t in orbit)
    for t in orbit[1:]:
        assert canonical_form(BinarySequence.from_string(t)) == rep


def test_runs_and_profile():
    y = BinarySequence.from_string("0011101")
    assert runs(y) == [(0, 2), (1, 3), (0, 1), (1, 1)]
    assert runs(BinarySequence(0, 0)) == []


def test_all_sequences_order_and_count():
    seqs = list(all_sequences(3))
    assert [s.to_string() for s in seqs] == [
        "000", "001", "010", "011", "100", "101", "110", "111",
    ]
    assert len(list(all_sequences(0))) == 1
    assert len(list(all_sequences(6))) == 64
