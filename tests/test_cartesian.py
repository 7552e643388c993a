import random

import pytest

from stringology.cartesian import (
    cartesian_tree,
    cartesian_tree_recursive,
    ct_border,
    ct_match,
    ct_match_naive,
    parent_distance,
    pd_window,
    trees_equal,
)

X = [3, 1, 6, 4, 8, 6, 7, 5, 9]
Y = [10, 12, 16, 15, 6, 14, 9, 12, 11, 14, 9, 17, 12, 10, 12]


def test_tree_shape_golden():
    t = cartesian_tree(X)
    assert t.root == 1
    assert t.left[1] == 0 and t.right[1] == 3
    assert t.left[3] == 2 and t.right[3] == 7
    assert t.left[7] == 5 and t.right[7] == 8
    assert t.left[5] == 4 and t.right[5] == 6


def test_increasing_sequence_is_right_chain():
    t = cartesian_tree([1, 2, 3, 4])
    assert t.root == 0
    assert t.right[:3] == [1, 2, 3] and t.left == [-1] * 4


def test_matches_recursive_oracle():
    rng = random.Random(11)
    for _ in range(300):
        x = [rng.randrange(8) for _ in range(rng.randint(0, 60))]
        assert trees_equal(cartesian_tree(x), cartesian_tree_recursive(x))


def in_order(t, v=None):
    v = t.root if v is None else v
    return [] if v == -1 else in_order(t, t.left[v]) + [v] + in_order(t, t.right[v])


def test_inorder_and_operation_counter():
    rng = random.Random(12)
    for _ in range(200):
        m = rng.randint(1, 100)
        x = [rng.randrange(10) for _ in range(m)]
        t = cartesian_tree(x)
        assert in_order(t) == list(range(m))
        assert t.pushes + t.pops <= 2 * m


def test_parent_distance_golden():
    assert parent_distance(X) == [0, 0, 1, 2, 1, 2, 1, 4, 1]
    assert parent_distance([5, 4, 3, 2, 1]) == [0] * 5


def test_pd_window_golden_and_oracle():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 60)
        w = [rng.randrange(6) for _ in range(n)]
        pd = parent_distance(w)
        for i in range(n):
            for j in range(i, n):
                assert pd_window(pd, i, j) == parent_distance(w[i:j + 1])
    with pytest.raises(ValueError):
        pd_window([0, 1], 1, 2)


def test_ct_border_golden():
    assert ct_border(X) == [-1, 0, 0, 1, 2, 3, 4, 1, 2]
    assert ct_border([1, 2, 3, 4, 5]) == [-1, 0, 1, 2, 3]
    with pytest.raises(ValueError):
        ct_border([])


def test_ct_border_entries_maximal():
    rng = random.Random(14)
    for _ in range(120):
        m = rng.randint(1, 12)
        x = [rng.randrange(4) for _ in range(m)]
        bord = ct_border(x)
        for i in range(m):
            best = -1
            for k in range(i):
                if trees_equal(
                    cartesian_tree_recursive(x[:k + 1]),
                    cartesian_tree_recursive(x[i - k:i + 1]),
                ):
                    best = max(best, k)
            if i == 0:
                assert bord[0] == -1
            else:
                assert bord[i] == best, (x, i)


def test_ct_match_golden():
    assert ct_match(X, Y) == [3]


def test_ct_match_trivial_pattern():
    y = [4, 7, 2, 9]
    assert ct_match([5], y) == [0, 1, 2, 3]


def test_ct_match_degenerate_shapes():
    # constant pattern on constant text: every window matches
    assert ct_match([1, 1, 1], [7] * 6) == [0, 1, 2, 3]
    # ties pick the leftmost minimum, so a constant window is a right chain
    assert ct_match([1, 1], [3, 3]) == [0]
    assert ct_match([1, 2], [3, 3]) == [0]
    assert ct_match([2, 1], [3, 3]) == []
    # strictly decreasing pattern inside a sawtooth
    y = [5, 4, 3, 9, 2, 1]
    assert ct_match([3, 2], y) == ct_match_naive([3, 2], y)


def test_ct_match_vs_naive_and_pd_characterization():
    rng = random.Random(15)
    for _ in range(250):
        m = rng.randint(1, 10)
        x = [rng.randrange(5) for _ in range(m)]
        y = [rng.randrange(5) for _ in range(rng.randint(0, 200))]
        got = ct_match(x, y)
        assert got == ct_match_naive(x, y)
        pdx = parent_distance(x)
        pdy = parent_distance(y)
        via_pd = [
            p
            for p in range(len(y) - m + 1)
            if pd_window(pdy, p, p + m - 1) == pdx
        ]
        assert got == via_pd
