import random

import pytest

from stringology.patterns import (
    embed_permutation,
    extend_universal,
    greedy_embedding,
    is_universal_shape_word,
    jumps_total,
    lift,
    shape,
    shape_graph_euler_labels,
    superpattern_word,
    universal_shape_word,
    window_shapes,
)


# ------------------------------------------------------------ superpattern


def test_superpattern_words():
    assert superpattern_word(8) == [1, 3, 5, 7, 9, 8, 6, 4, 2] * 4
    s7 = superpattern_word(7)
    assert s7 == [1, 3, 5, 7, 8, 6, 4, 2] * 3 + [1, 3, 5, 7]
    for n in range(1, 51):
        assert len(superpattern_word(n)) == (n * n + n) // 2


def test_jump_sequence_golden():
    pos, jumps = greedy_embedding([5, 1, 8, 4, 3, 7, 2, 6], 8)
    assert jumps == [1, 2, 1, 0, 1, 0, 1, 2]
    assert sum(jumps) == 8
    assert pos == [3, 10, 15, 17, 20, 22, 27, 34]


def test_jumps_examples():
    ident = list(range(1, 9))
    assert jumps_total(ident, 8) == 8
    assert jumps_total([v + 1 for v in ident], 8) == 9
    assert jumps_total([2, 4, 6, 8, 7, 5, 3, 1], 8) == 15
    assert jumps_total([3, 5, 7, 9, 8, 6, 4, 2], 8) == 2


def test_embed_is_order_equivalent():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randint(1, 30)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        pos = embed_permutation(pi)
        word = superpattern_word(n)
        assert all(q > p for p, q in zip(pos, pos[1:]))
        assert 0 <= pos[0] and pos[-1] < len(word)
        sub = [word[p] for p in pos]
        assert shape(sub) == shape(pi)


def test_embed_validates_input():
    with pytest.raises(ValueError):
        embed_permutation([1, 1, 2])


# ------------------------------------------------------------------ shapes


def test_shape_examples():
    assert shape([2, 5, 4]) == (1, 3, 2)
    assert shape([1, 2, 3]) == (1, 2, 3)
    with pytest.raises(ValueError):
        shape([2, 2])


def test_shape_matches_pairwise_order():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 12)
        u = rng.sample(range(100), n)
        s = shape(u)
        for i in range(n):
            for j in range(n):
                assert (u[i] < u[j]) == (s[i] < s[j])


def test_lift():
    assert lift([3, 2, 4, 1], 3) == [4, 2, 5, 1]


def test_extend_examples():
    alpha = [4, 6, 7, 5, 1, 7, 6, 4, 3, 1]
    assert extend_universal(alpha, 2, 4) == [5, 7, 8, 6, 1, 8, 7, 5, 4, 1, 3]
    assert extend_universal(alpha, 4, 4) == [4, 7, 8, 6, 1, 8, 7, 4, 3, 1, 5]


def test_universal_golden_n3():
    assert shape_graph_euler_labels(3) == [1, 1, 2, 2, 3, 3]
    assert universal_shape_word(3) == [7, 8, 6, 1, 3, 2, 4, 5]


def test_short_universal_example():
    w = [3, 5, 1, 0, 5, 1, 2, 3]
    assert is_universal_shape_word(w, 3)
    assert window_shapes(w, 3) == [
        (2, 3, 1), (3, 2, 1), (2, 1, 3), (1, 3, 2), (3, 1, 2), (1, 2, 3)
    ]


def test_universal_range_check():
    with pytest.raises(ValueError):
        universal_shape_word(1)
    with pytest.raises(ValueError):
        universal_shape_word(8)
