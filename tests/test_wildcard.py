import math
import random

import pytest

from stringology.oracles import approx_occurs
from stringology.selftest import assert_side_tries_match_definition
from stringology.wildcard import wildcard_index, wildcard_search
from stringology.words import HOLE, fibonacci_word, thue_morse


def letters(s):
    return [ord(c) - ord("a") for c in s]


def test_exact_patterns_degenerate_to_descent():
    idx = wildcard_index(letters("abaababa"))
    assert wildcard_search(idx, letters("aba"))
    assert wildcard_search(idx, letters("abaababa"))
    assert not wildcard_search(idx, letters("abb"))
    assert wildcard_search(idx, [])


def test_single_hole_examples():
    idx = wildcard_index(letters("abacada"))
    assert wildcard_search(idx, [0, HOLE, 0])
    assert not wildcard_search(idx, [0, HOLE, 1])
    assert wildcard_search(idx, [HOLE])
    assert wildcard_search(idx, letters("ba") + [HOLE])
    assert not wildcard_search(idx, letters("da") + [HOLE])  # would need text beyond the end


def test_two_holes_rejected():
    idx = wildcard_index(letters("ab"))
    with pytest.raises(ValueError):
        wildcard_search(idx, [HOLE, HOLE])


@pytest.mark.parametrize("pattern", [[0, -2], [-2], [HOLE, -3, 1], [-5, 0, 1]])
def test_negative_pattern_symbols_other_than_hole_rejected(pattern):
    idx = wildcard_index(letters("abaab"))
    with pytest.raises(ValueError):
        wildcard_search(idx, pattern)


def test_unary_word_side_tries_trivial():
    n = 12
    idx = wildcard_index([0] * n)
    tree = idx.tree
    for v, trie in idx.side.items():
        kids = tree.children[v]
        light = [s for s in kids if s != idx.heavy[v]]
        assert light == [tree.sentinel]
        assert trie.strings() == {()}


def test_heavy_edges_unique_and_light_ancestor_bound():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 400)
        w = [rng.randrange(2) for _ in range(n)]
        idx = wildcard_index(w)
        tree = idx.tree
        bound = math.ceil(math.log2(tree.n)) + 1
        for v in range(len(tree.parent)):
            if tree.children[v]:
                assert idx.heavy[v] in tree.children[v]
        for leaf in range(len(tree.parent)):
            if not tree.is_leaf(leaf):
                continue
            light_ancestors = 0
            v = leaf
            while v:
                p = tree.parent[v]
                first = tree.text[tree.start[v]]
                if idx.heavy[p] != first:
                    light_ancestors += 1
                v = p
            assert light_ancestors <= bound


def test_side_trie_strings_match_definition():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 64)
        assert_side_tries_match_definition([rng.randrange(3) for _ in range(n)])


def test_side_trie_strings_match_definition_structured():
    for k in range(8):
        assert_side_tries_match_definition(thue_morse(k))
    for k in range(11):
        assert_side_tries_match_definition(fibonacci_word(k))


@pytest.mark.parametrize("word, count", [
    (thue_morse(10), 9812),
    (fibonacci_word(14), 9066),
    (thue_morse(12), 46420),
    (fibonacci_word(16), 26600),
])
def test_node_count_golden_structured(word, count):
    assert wildcard_index(word).node_count() == count


def test_search_matches_naive_scan():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 300)
        sigma = rng.choice((2, 2, 3, 4))
        w = [rng.randrange(sigma) for _ in range(n)]
        idx = wildcard_index(w)
        for _ in range(80):
            m = rng.randint(1, 6)
            pat = [rng.randrange(sigma) for _ in range(m)]
            if rng.random() < 0.85:
                pat[rng.randrange(m)] = HOLE
            want = approx_occurs(pat, w)
            assert wildcard_search(idx, pat) == want


def test_node_count_bound():
    rng = random.Random(10)
    for n in (50, 120, 500, 1200, 2000):
        w = [rng.randrange(2) for _ in range(n)]
        idx = wildcard_index(w)
        assert idx.node_count() <= 4 * n * math.log2(n)


def test_search_at_scale_with_planted_patterns():
    rng = random.Random(11)
    n = 2000
    w = [rng.randrange(3) for _ in range(n)]
    idx = wildcard_index(w)
    for _ in range(300):
        m = rng.randint(2, 12)
        start = rng.randrange(n - m)
        pat = list(w[start:start + m])
        pat[rng.randrange(m)] = HOLE
        assert wildcard_search(idx, pat)
        if rng.random() < 0.5:
            pat = [rng.randrange(3) for _ in range(m)]
            pat[rng.randrange(m)] = HOLE
            assert wildcard_search(idx, pat) == approx_occurs(pat, w)


def test_text_with_holes_rejected():
    with pytest.raises(ValueError):
        wildcard_index([0, HOLE, 1])
