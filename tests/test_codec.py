import random
from fractions import Fraction

import pytest

from stringology.codec import (
    PairPartition,
    compress_pairs,
    entropy,
    hamming_build,
    hamming_correct,
    hamming_encode,
    hamming_matrix,
    hamming_syndrome,
    huffman_cost,
    kraft_sum,
    pairing_partition,
    shrink_runs,
)


def letters(s):
    return [ord(c) - ord("a") for c in s]


# ----------------------------------------------------------------- hamming


def test_hamming_build_r3_matrix():
    code = hamming_build(3)
    assert hamming_matrix(code) == [
        [1, 1, 1, 0],
        [1, 1, 0, 1],
        [1, 0, 1, 1],
    ]
    assert (code.n, code.k) == (7, 4)


def test_hamming_p_columns_are_all_nonzero_words():
    for r in (3, 4, 5):
        code = hamming_build(r)
        cols = code.p_columns
        assert sorted(cols) == list(range(1, 1 << r))
        assert all(bin(c).count("1") >= 2 for c in code.m_columns)
        assert (code.n, code.k) == ((1 << r) - 1, (1 << r) - r - 1)


def test_hamming_encode_example():
    code = hamming_build(3)
    assert hamming_encode(code, [1, 0, 1, 0]) == [1, 0, 1, 0, 0, 1, 0]
    assert hamming_encode(code, [0, 0, 0, 0]) == [0] * 7


def test_hamming_encode_validates():
    code = hamming_build(3)
    with pytest.raises(ValueError):
        hamming_encode(code, [1, 0, 1])
    with pytest.raises(ValueError):
        hamming_build(2)


def test_hamming_correct_examples():
    code = hamming_build(3)
    word = [1, 0, 1, 0, 0, 1, 0]
    assert hamming_correct(code, word) == (word, None)
    damaged = list(word)
    damaged[6] ^= 1
    assert hamming_correct(code, damaged) == (word, 6)


def test_hamming_r3_distance_and_full_sweep():
    code = hamming_build(3)
    words = [hamming_encode(code, [(m >> i) & 1 for i in range(4)]) for m in range(16)]
    assert len({tuple(w) for w in words}) == 16  # encoding is injective
    for i in range(16):
        for j in range(i + 1, 16):
            assert sum(a != b for a, b in zip(words[i], words[j])) >= 3
    for w in words:
        for pos in range(7):
            y = list(w)
            y[pos] ^= 1
            assert hamming_correct(code, y) == (w, pos)


def test_hamming_r4_random_codewords_check_out():
    code = hamming_build(4)
    rng = random.Random(12)
    for _ in range(1000):
        msg = [rng.randrange(2) for _ in range(11)]
        c = hamming_encode(code, msg)
        assert hamming_syndrome(code, c) == 0
        pos = rng.randrange(15)
        y = list(c)
        y[pos] ^= 1
        assert hamming_correct(code, y) == (c, pos)


# ----------------------------------------------------------------- huffman


def test_huffman_example():
    cost, depths = huffman_cost([0.1, 0.1, 0.3, 0.5])
    assert abs(cost - 1.7) < 1e-12
    assert depths == [3, 3, 2, 1]
    assert kraft_sum(depths) == Fraction(1)


def test_huffman_simple_cases():
    assert huffman_cost([0.5, 0.5])[0] == 1.0
    cost, depths = huffman_cost([1 / 8] * 8)
    assert abs(cost - 3.0) < 1e-12
    assert depths == [3] * 8
    assert huffman_cost([1.0]) == (0.0, [0])


def test_entropy_examples():
    assert abs(entropy([0.1, 0.1, 0.3, 0.5]) - 1.68548) < 1e-5
    assert entropy([1.0]) == 0
    assert abs(entropy([0.25] * 4) - 2.0) < 1e-12


def test_weight_validation():
    with pytest.raises(ValueError):
        entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy([1.5, -0.5])
    with pytest.raises(ValueError):
        huffman_cost([])


def test_entropy_sandwich_random():
    rng = random.Random(13)
    for _ in range(3000):
        n = rng.randint(1, 64)
        raw = [rng.random() + 1e-9 for _ in range(n)]
        total = sum(raw)
        p = [w / total for w in raw]
        cost, depths = huffman_cost(p)
        assert kraft_sum(depths) == Fraction(1)
        h = entropy(p)
        assert h - 1e-9 <= cost <= h + 1 + 1e-9


# ----------------------------------------------------------------- pairing


def test_shrink_runs():
    assert shrink_runs(letters("aaabbb")) == letters("ab")
    assert shrink_runs(letters("abc")) == letters("abc")
    assert shrink_runs([]) == []


def test_shrink_runs_idempotent():
    rng = random.Random(15)
    for _ in range(1000):
        w = [rng.randrange(4) for _ in range(rng.randint(0, 50))]
        once = shrink_runs(w)
        assert shrink_runs(once) == once


def test_partition_worked_example():
    x = letters("abcacbabcbac")
    part = pairing_partition(x)
    assert part.left == frozenset(letters("ac"))
    assert part.right == frozenset(letters("b"))
    out = compress_pairs(x, part)
    assert out == [3, 2, 0, 4, 3, 4, 0, 2]  # dcaedeac with d=ab, e=cb
    assert len(out) == 8 <= 0.75 * len(x)


def test_compress_examples():
    out = compress_pairs(letters("aaabbb"), PairPartition(frozenset([0]), frozenset([1])))
    assert out == [0, 0, 2, 1, 1]  # aa<fresh>bb, length 5
    assert len(out) == 5
    x = letters("abcabc")
    assert compress_pairs(x, PairPartition(frozenset(x), frozenset())) == x


def test_compress_requires_covering_partition():
    with pytest.raises(ValueError):
        compress_pairs(letters("abc"), PairPartition(frozenset([0]), frozenset([1])))


def test_compress_requires_disjoint_sides():
    both = frozenset(letters("ab"))
    with pytest.raises(ValueError):
        compress_pairs(letters("abab"), PairPartition(both, both))


def test_partition_preconditions():
    with pytest.raises(ValueError):
        pairing_partition([0])
    with pytest.raises(ValueError):
        pairing_partition(letters("aab"))


def test_pairing_bound_random():
    rng = random.Random(16)
    for _ in range(3000):
        n = rng.randint(2, 60)
        x = [rng.randrange(6)]
        while len(x) < n:
            c = rng.randrange(6)
            if c != x[-1]:
                x.append(c)
        part = pairing_partition(x)
        assert part.left | part.right >= set(x)
        assert not part.left & part.right
        out = compress_pairs(x, part)
        assert 4 * len(out) <= 3 * len(x)


def test_pairing_bound_exhaustive_small():
    def gen(prefix, maxletter, n):
        if len(prefix) == n:
            yield prefix
            return
        for c in range(min(maxletter + 2, 5)):
            if prefix and prefix[-1] == c:
                continue
            yield from gen(prefix + (c,), max(maxletter, c), n)

    for n in range(2, 9):
        for w in gen((), -1, n):
            x = list(w)
            out = compress_pairs(x, pairing_partition(x))
            assert 4 * len(out) <= 3 * len(x), x
