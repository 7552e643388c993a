import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringology.rle import rle_decode, rle_encode
from stringology.words import (
    HOLE,
    SizeLimitError,
    all_factors,
    all_subsequences,
    bar,
    fibonacci_number,
    fibonacci_word,
    is_subsequence,
    prefix_table,
    thue_morse,
    zarray,
)


def letters(s):
    return [ord(c) - ord("a") for c in s]


def test_thue_morse_values():
    assert thue_morse(0) == [0]
    assert thue_morse(4) == letters("abbabaabbaababba")
    assert thue_morse(5) == thue_morse(4) + bar(thue_morse(4))
    assert len(thue_morse(5)) == 32


def test_thue_morse_recurrence():
    for k in range(12):
        assert thue_morse(k + 1) == thue_morse(k) + bar(thue_morse(k))


def test_thue_morse_bounds():
    with pytest.raises(SizeLimitError):
        thue_morse(26)
    with pytest.raises(ValueError):
        thue_morse(-1)


def test_fibonacci_words():
    assert fibonacci_word(2) == letters("aba")
    assert fibonacci_word(3) == letters("abaab")
    assert fibonacci_word(5) == letters("abaababaabaab")
    for k in range(21):
        assert len(fibonacci_word(k)) == fibonacci_number(k + 2)
    with pytest.raises(SizeLimitError):
        fibonacci_word(31)


def test_prefix_table():
    assert prefix_table([0, 0, 0, 0]) == [4, 3, 2, 1]
    assert prefix_table(letters("abab")) == [4, 0, 2, 0]
    assert prefix_table(letters("abc")) == [3, 0, 0]
    with pytest.raises(ValueError):
        prefix_table([])


@given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
@settings(max_examples=200)
def test_prefix_table_matches_definition(w):
    z = prefix_table(w)
    for i in range(len(w)):
        lcp = 0
        while i + lcp < len(w) and w[lcp] == w[i + lcp]:
            lcp += 1
        assert z[i] == lcp


def test_zarray_generic_letters():
    assert zarray([(0, 2), (1, 1), (0, 2)]) == [3, 0, 1]


def test_all_subsequences_counts():
    assert len(all_subsequences(letters("abab"))) == 12
    assert all_subsequences([]) == {()}


def test_all_factors():
    assert all_factors(letters("aa")) == {(0,), (0, 0)}
    assert len(all_factors(letters("abc"))) == 6
    with pytest.raises(SizeLimitError):
        all_factors([0] * 2001)
    with pytest.raises(SizeLimitError):
        all_subsequences([0] * 25)


def test_is_subsequence():
    assert is_subsequence([0, 2], [0, 1, 2])
    assert not is_subsequence([2, 0], [0, 1, 2])
    assert is_subsequence([], [])


def test_hole_is_out_of_alphabet():
    assert HOLE < 0


@given(st.lists(st.integers(0, 1), max_size=40))
@settings(max_examples=500)
def test_rle_roundtrip_random(tail):
    w = [1] + tail
    assert rle_decode(rle_encode(w)) == w
