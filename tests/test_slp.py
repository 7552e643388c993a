import math

import pytest

from stringology.slp import (
    Slp,
    SlpBuilder,
    slp_expand,
    slp_length,
    slp_size,
    strict_binary,
)
from stringology.permgen import gen_sequence
from stringology.words import SizeLimitError


def test_power_expand():
    b = SlpBuilder()
    node = b.power(b.term(1), 5)
    g = b.build(node)
    assert slp_expand(g) == [1, 1, 1, 1, 1]
    assert slp_length(g) == 5


def test_zaks_grammar_examples():
    g3 = gen_sequence("zaks", 3)
    assert slp_expand(g3) == [1, 2, 1, 2, 1]
    g10 = gen_sequence("zaks", 10)
    assert slp_length(g10) == math.factorial(10) - 1 == 3628799


def test_expand_limit():
    g = gen_sequence("zaks", 12)
    with pytest.raises(SizeLimitError):
        slp_expand(g, limit=10 ** 6)


def test_length_matches_expansion():
    for kind in ("zaks", "knuthC", "heap", "ehrlich", "stj"):
        for n in (2, 3, 4, 5, 6):
            g = gen_sequence(kind, n)
            assert slp_length(g) == len(slp_expand(g))


def test_strict_binary_rewrites_powers():
    b = SlpBuilder()
    g = b.build(b.power(b.term(7), 1000))
    sb = strict_binary(g)
    assert all(rule[0] != "pow" for rule in sb.rules.values())
    assert slp_length(sb) == 1000
    assert slp_expand(sb) == [7] * 1000
    assert slp_size(sb) <= 2 * (1000).bit_length() + 2


def test_strict_binary_zaks_size():
    # rule count stays within a small multiple of n log n
    for n in (6, 10, 16, 20):
        sb = strict_binary(gen_sequence("zaks", n))
        assert all(rule[0] != "pow" for rule in sb.rules.values())
        assert slp_size(sb) <= 4 * n * max(1, math.ceil(math.log2(n)))


def test_validation_rejects_cycles_and_missing_rules():
    with pytest.raises(ValueError):
        Slp({0: ("cat", 0, 0)}, 0)
    with pytest.raises(ValueError):
        Slp({0: ("cat", 1, 1)}, 0)
    with pytest.raises(ValueError):
        Slp({0: ("pow", 1, 0), 1: ("term", 3)}, 0)


def slp_from_word(x):
    """Trivial grammar for a concrete word."""
    b = SlpBuilder()
    return b.build(b.concat_all([b.term(s) for s in x]))


def test_slp_from_word_roundtrip():
    w = [3, 1, 4, 1, 5]
    assert slp_expand(slp_from_word(w)) == w
