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
from stringology.freeband import Quadruple, psi
from stringology.gf2 import Gf2Poly
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
    # one power rule one past the cap; slp_length sizes it without expanding
    b = SlpBuilder()
    g = b.build(b.power(b.term(1), (1 << 22) + 1))
    with pytest.raises(SizeLimitError):
        slp_expand(g)


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
    with pytest.raises(ValueError):
        Slp({0: ("cat", 1), 1: ("term", 3)}, 0)
    with pytest.raises(ValueError):
        Slp({0: ("sum", 1, 1), 1: ("term", 3)}, 0)


def slp_from_word(x):
    """Trivial grammar for a concrete word."""
    b = SlpBuilder()
    return b.build(b.concat_all([b.term(s) for s in x]))


def test_slp_from_word_roundtrip():
    w = [3, 1, 4, 1, 5]
    assert slp_expand(slp_from_word(w)) == w


def assert_children_first(g):
    seen = set()
    for v in g.order:
        rule = g.rules[v]
        children = rule[1:] if rule[0] == "cat" else rule[1:2] if rule[0] == "pow" else ()
        assert v not in seen and all(c in seen for c in children)
        seen.add(v)
    assert g.order[-1] == g.start


def test_order_lists_reachable_rules_once_children_first():
    for kind in ("zaks", "knuthC", "heap", "ehrlich", "stj"):
        for n in (2, 3, 5, 7):
            assert_children_first(gen_sequence(kind, n))
    # rule 3 is unreachable; left child before right, shared rule 0 once
    g = Slp({0: ("term", 1), 1: ("term", 2), 2: ("cat", 1, 0), 3: ("term", 9),
             4: ("cat", 2, 0), 5: ("pow", 4, 3)}, 5)
    assert g.order == (1, 0, 2, 4, 5)
    assert_children_first(g)


def test_order_leaves_equality_and_repr_alone():
    g = Slp({0: ("term", 1)}, 0)
    assert g == Slp({0: ("term", 1)}, 0)
    assert repr(g) == "Slp(rules={0: ('term', 1)}, start=0)"


def test_value_records_compare_and_hash_by_value():
    # Gf2Poly and Quadruple are equal by value and hash alike, so equal values
    # share one dict key; an Slp is equal by rules and start but not hashable
    for a, b in [(Gf2Poly(37), Gf2Poly.from_exponents([5, 2, 0])),
                 (psi([0, 1, 0, 1]), Quadruple((0,), 1, 0, (1,)))]:
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1, b: 2} == {a: 2}
    assert Gf2Poly(5) != Gf2Poly(7) and Gf2Poly(5) != 5
    assert psi([0, 1]) != psi([1, 0])
    built = []
    for _ in range(2):
        b = SlpBuilder()
        built.append(b.build(b.cat(b.term(1), b.term(2))))
    assert built[0].rules is not built[1].rules and built[0] == built[1]
    assert built[0] != Slp(built[0].rules, 1)
    with pytest.raises(TypeError):
        hash(built[0])


def test_deep_chain_without_recursion():
    # a left-leaning chain of 20 000 concatenations, far deeper than the
    # default recursion limit: length and the strict rewrite walk it in one pass
    import sys

    limit = sys.getrecursionlimit()
    b = SlpBuilder()
    one = b.term(1)
    node = one
    for _ in range(20_000):
        node = b.cat(node, one)
    g = b.build(node)
    assert slp_length(g) == 20_001
    sb = strict_binary(g)
    assert sb.rules == g.rules and sb.start == g.start
    assert sys.getrecursionlimit() == limit
