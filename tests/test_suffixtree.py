import random

from stringology import oracles
from stringology.selftest import assert_tree_bookkeeping, edge_word, leaves_below, tree_shape
from stringology.subcount import dif_table_marking
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


def test_leaf_labels_are_suffix_starts():
    rng = random.Random(1)
    for _ in range(80):
        n = rng.randint(1, 200)
        w = [rng.randrange(3) for _ in range(n)]
        t = suffix_tree(w)
        assert sorted(leaves_below(t, 0)) == list(range(n + 1))
        # every suffix is spelled by a root-to-leaf path
        for v in range(len(t.parent)):
            if not t.is_leaf(v):
                continue
            path = []
            u = v
            while u:
                path.append(u)
                u = t.parent[u]
            word = []
            for node in reversed(path):
                word.extend(edge_word(t, node))
            assert word == t.text[t.suffix_label[v]:]


def test_internal_nodes_have_two_children():
    rng = random.Random(2)
    for _ in range(60):
        w = [rng.randrange(2) for _ in range(rng.randint(1, 300))]
        t = suffix_tree(w)
        for v in range(len(t.parent)):
            if not t.is_leaf(v) and v != 0:
                assert len(t.children[v]) >= 2


def test_tree_equals_suffix_grouping_oracle():
    rng = random.Random(3)
    words = [[], [0, 1, 0, 0, 1] * 60]  # the empty word; length 300, periodic
    for _ in range(120):
        n = rng.randint(1, 180)
        sigma = rng.choice((1, 2, 3, 5))
        words.append([rng.randrange(sigma) for _ in range(n)])
    for w in words:
        assert tree_shape(suffix_tree(w)) == oracles.suffix_tree_shape(w)


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


def test_order_is_sorted_on_first_read_and_kept():
    for w in ([], [0] * 9, thue_morse(6), fibonacci_word(9), [2, 0, 1, 1, 0, 2, 2]):
        tree = suffix_tree(w)
        dif_table_marking(tree)
        assert "order" not in vars(tree)  # building and counting never sort
        order = tree.order
        assert order == sorted(range(len(tree.parent)), key=tree.depth.__getitem__)
        assert_tree_bookkeeping(tree)
        assert tree.order is order


def test_inorder_leaves_form_the_suffix_array():
    rng = random.Random(4)
    for n in (500, 2000, 5000):
        w = [rng.randrange(3) for _ in range(n)]
        t = suffix_tree(w)
        order = []
        stack = [0]
        while stack:
            v = stack.pop()
            if t.is_leaf(v):
                order.append(t.suffix_label[v])
            for sym in sorted(t.children[v], reverse=True):
                stack.append(t.children[v][sym])
        sa = sorted(range(n + 1), key=lambda i: t.text[i:])
        assert order == sa


def test_lexicographic_view_equals_sorted_suffix_oracle():
    rng = random.Random(6)
    words = [[], [0], [0] * 7, [3] * 20]
    words += [thue_morse(k) for k in range(8)] + [fibonacci_word(k) for k in range(11)]
    for _ in range(100):
        sigma = rng.choice((1, 2, 3, 5))
        words.append([rng.randrange(sigma) for _ in range(rng.randint(0, 120))])
    for w in words:
        t = suffix_tree(w)
        view = t.lexicographic()
        assert view.sa == oracles.suffix_array(w)
        assert [view.sa[r] for r in view.rank] == list(range(t.n))
        for v in range(len(t.parent)):
            assert sorted(view.sa[view.lo[v]:view.hi[v]]) == sorted(leaves_below(t, v))
