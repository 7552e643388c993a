import itertools
import math
import random

import pytest

from stringology.oracles import approx_occurs
from stringology.selftest import leaves_below
from stringology.wildcard import wildcard_index, wildcard_search
from stringology.words import HOLE, fibonacci_word, thue_morse

from helpers import letters


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


@pytest.mark.parametrize("kind", [list, tuple])
def test_pattern_checks_run_in_order(kind):
    # hole count, then negative symbols, then the alphabet
    idx = wildcard_index(letters("abaab"))
    with pytest.raises(ValueError, match="at most one hole"):
        wildcard_search(idx, kind([HOLE, HOLE, -3]))
    with pytest.raises(ValueError, match="non-negative"):
        wildcard_search(idx, kind([0, -2]))
    assert wildcard_search(idx, kind([HOLE, 9])) is False


@pytest.mark.parametrize("kind", [list, tuple])
@pytest.mark.parametrize("text, pattern", [
    ("abaab", [2, HOLE]),  # 2 is the sentinel value of abaab
    ("abaab", [0, 2, HOLE, 0]),  # the sentinel value before the hole
    ("abaab", [0, HOLE, 2]),  # just after it
    ("abaab", [0, HOLE, 0, 2]),  # last
    ("abaab", [0, 1, 2]),
    ("acac", [1, HOLE]),  # b lies inside the text's range but never occurs
    ("acac", [HOLE, 1]),
    ("acac", [1]),
])
def test_symbols_the_text_lacks_never_occur(kind, text, pattern):
    w = letters(text)
    assert wildcard_search(wildcard_index(w), kind(pattern)) is False
    assert not approx_occurs(pattern, w)


@pytest.mark.parametrize("kind", [list, tuple])
def test_errors_come_before_the_alphabet_test(kind):
    idx = wildcard_index(letters("abaab"))
    with pytest.raises(ValueError, match="non-negative"):
        wildcard_search(idx, kind([5, -2]))
    with pytest.raises(ValueError, match="at most one hole"):
        wildcard_search(idx, kind([HOLE, HOLE, 5]))


@pytest.mark.parametrize("kind", [list, tuple])
def test_symbols_equal_to_an_int_match_it(kind):
    # True == 1 == 1.0, and they hash alike: each is the symbol b
    idx = wildcard_index(letters("abaab"))
    assert wildcard_search(idx, kind([0, True]))
    assert wildcard_search(idx, kind([1.0, HOLE, 0]))
    assert wildcard_search(idx, kind([HOLE, 1.0]))
    assert not wildcard_search(idx, kind([True, True]))


def test_unary_word_side_lists_trivial():
    n = 12
    idx = wildcard_index([0] * n)
    tree = idx.tree
    for v, side in idx.side.items():
        kids = tree.children[v]
        light = [s for s in kids if s != idx.heavy[v]]
        assert light == [tree.sentinel]
        assert side == []


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
                # the most leaves, the smallest symbol on a tie
                size = {sym: len(leaves_below(tree, c)) for sym, c in tree.children[v].items()}
                assert idx.heavy[v] == min(size, key=lambda sym: (-size[sym], sym))
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


def side_entries_by_definition(tree) -> int:
    """Leaves below the light children of every internal node, the heavy
    child being the one with the most leaves (ties toward the smaller
    symbol), less one for each light sentinel leaf: its shifted suffix is
    empty."""
    total = 0
    for v in range(len(tree.parent)):
        kids = tree.children[v]
        if not kids:
            continue
        size = {sym: len(leaves_below(tree, child)) for sym, child in kids.items()}
        heavy = min(size, key=lambda sym: (-size[sym], sym))
        total += sum(size[sym] for sym in size if sym != heavy)
        total -= tree.sentinel in kids and heavy != tree.sentinel
    return total


@pytest.mark.parametrize("word, count", [
    (thue_morse(10), 6231),
    (fibonacci_word(14), 5332),
    (thue_morse(12), 29015),
    (fibonacci_word(16), 15391),
])
def test_node_count_golden_structured(word, count):
    idx = wildcard_index(word)
    assert idx.node_count() == count
    assert count == len(idx.tree.parent) + side_entries_by_definition(idx.tree)


def test_search_matches_naive_scan_structured():
    # symbol 2 is outside the texts' alphabet; a trailing hole leaves no rest
    patterns = [()]
    for m in range(1, 6):
        for pat in itertools.product((0, 1, 2, HOLE), repeat=m):
            if pat.count(HOLE) <= 1:
                patterns.append(pat)
    words = [thue_morse(k) for k in range(9)] + [fibonacci_word(k) for k in range(12)]
    for w in words:
        idx = wildcard_index(w)
        for pat in patterns:
            assert wildcard_search(idx, pat) == approx_occurs(pat, w), (w, pat)


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
    with pytest.raises(ValueError):
        wildcard_index(iter([0, HOLE, 1]))


def test_index_over_an_iterator_sees_the_whole_word():
    idx = wildcard_index(iter([0, 1, 0]))
    assert idx.tree.text == [0, 1, 0, 2]
    assert wildcard_search(idx, [0, 1])
    assert wildcard_search(idx, [HOLE, 1, 0])
