import random

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
