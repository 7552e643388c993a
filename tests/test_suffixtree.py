import random

import pytest

from stringology.selftest import assert_tree_bookkeeping
from stringology.suffixtree import suffix_tree
from stringology.words import fibonacci_word, thue_morse

from helpers import letters


def test_abaab_structure():
    t = suffix_tree(letters("abaab"))
    leaves = [v for v in range(len(t.parent)) if t.is_leaf(v)]
    assert len(leaves) == 6
    internal = sorted(
        t.depth[v] for v in range(1, len(t.parent)) if not t.is_leaf(v))
    assert internal == [1, 1, 2]


def test_unary_word_chain():
    t = suffix_tree([0, 0, 0])
    leaves = [v for v in range(len(t.parent)) if t.is_leaf(v)]
    assert len(leaves) == 4


def test_depths_labels_and_order_are_consistent():
    rng = random.Random(5)
    words = [thue_morse(k) for k in range(11)] + [fibonacci_word(k) for k in range(15)]
    words += [[0] * m for m in range(12)] + [[0] * 50, [2] * 300]
    words += [[rng.randrange(3) for _ in range(rng.randint(1, 300))] for _ in range(20)]
    for _ in range(40):
        sigma = rng.choice((1, 2, 5))
        words.append([rng.randrange(sigma) for _ in range(rng.randint(0, 400))])
    for w in words:
        assert_tree_bookkeeping(suffix_tree(w))


def test_inorder_leaves_form_the_suffix_array():
    rng = random.Random(4)
    for n in (500, 2000, 5000):
        w = [rng.randrange(3) for _ in range(n)]
        t = suffix_tree(w)
        leaves = []
        stack = [0]
        while stack:
            v = stack.pop()
            if t.is_leaf(v):
                leaves.append(t.suffix_label[v])
            for sym in sorted(t.children[v], reverse=True):
                stack.append(t.children[v][sym])
        sa = sorted(range(n + 1), key=lambda i: t.text[i:])
        assert leaves == sa


def layout_words():
    rng = random.Random(12)
    words = [[], [0], [0] * 2, [0] * 17, [5] * 64]
    words += [thue_morse(k) for k in range(9)] + [fibonacci_word(k) for k in range(12)]
    words += [[rng.randrange(s) for _ in range(rng.randint(1, 200))] for s in (2, 3, 4, 26)
              for _ in range(5)]
    return words


def test_leaf_of_suffix_j_is_node_j_plus_1():
    for w in layout_words():
        t = suffix_tree(w)
        assert t.suffix_label[1:t.n + 1] == list(range(t.n)), w
        assert all(t.depth[j + 1] == t.n - j for j in range(t.n)), w
        assert all(t.end[j + 1] == t.n for j in range(t.n)), w


def test_internal_ids_follow_the_leaves():
    for w in layout_words():
        t = suffix_tree(w)
        internal = [v for v in range(1, len(t.parent)) if not t.is_leaf(v)]
        assert internal == list(range(t.n + 1, len(t.parent))), w
        assert all(t.parent[v] == 0 or t.parent[v] > t.n for v in range(1, len(t.parent))), w


def test_leaves_share_one_read_only_children_mapping():
    for w in layout_words():
        t = suffix_tree(w)
        leaf_kids = {id(t.children[v]) for v in range(1, t.n + 1)}
        assert len(leaf_kids) == 1, w
        kids = t.children[1]
        assert len(kids) == 0
        with pytest.raises(TypeError):
            kids[0] = 1


def test_is_leaf_agrees_with_suffix_label():
    for w in layout_words():
        t = suffix_tree(w)
        for v in range(len(t.parent)):
            assert t.is_leaf(v) == (t.suffix_label[v] >= 0) == (1 <= v <= t.n), (w, v)
            assert t.is_leaf(v) == (not t.children[v]), (w, v)


def test_factor_count_is_edge_length_less_sentinels():
    assert suffix_tree([]).factor_count() == 0
    assert suffix_tree(letters("abaab")).factor_count() == 11
    assert suffix_tree([0] * 30).factor_count() == 30
    assert suffix_tree([0, 1] * 1000).factor_count() == 3999
