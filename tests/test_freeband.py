import itertools
import random

import pytest

from stringology.freeband import Quadruple, idempotent_equivalent, psi
from stringology.oracles import band_signatures, rewrite_closure_classes

from helpers import letters


def test_psi_worked_example():
    q = psi(letters("ababbbcbcbc"))
    assert q.prefix == tuple(letters("ababbb"))
    assert q.first_new == letters("c")[0]
    assert q.last_new == letters("a")[0]
    assert q.suffix == tuple(letters("bbbcbcbc"))


def test_psi_single_letter_and_unary():
    q = psi([5])
    assert q == type(q)((), 5, 5, ())
    q = psi([2, 2, 2, 2])
    assert q.prefix == () and q.suffix == ()
    assert q.first_new == q.last_new == 2
    with pytest.raises(ValueError):
        psi([])


def test_psi_of_the_reversed_word_is_the_mirrored_quadruple():
    rng = random.Random(13)
    for _ in range(500):
        x = [rng.randrange(rng.randint(1, 5)) for _ in range(rng.randint(1, 20))]
        q = psi(x)
        assert psi(x[::-1]) == Quadruple(q.suffix[::-1], q.last_new, q.first_new,
                                         q.prefix[::-1])


def test_equivalence_worked_examples():
    assert idempotent_equivalent(letters("aababa"), letters("aba"))
    assert idempotent_equivalent(letters("bacbcabc"), letters("bacabc"))
    assert psi(letters("bacbcabc")) == psi(letters("bacabc"))
    assert idempotent_equivalent([0] * 10, [0] * 111)
    assert not idempotent_equivalent(letters("ab"), letters("ba"))
    assert idempotent_equivalent([], [])
    assert not idempotent_equivalent([], [0])


def test_equivalence_is_an_equivalence_relation():
    rng = random.Random(3)
    words = [[rng.randrange(3) for _ in range(rng.randint(1, 8))] for _ in range(40)]
    for x in words:
        assert idempotent_equivalent(x, x)
    for x in words[:15]:
        for y in words[:15]:
            assert idempotent_equivalent(x, y) == idempotent_equivalent(y, x)
    # transitivity on a same-class triple
    for x in words[:10]:
        dup = x + x
        dupdup = dup + dup
        assert idempotent_equivalent(x, dup)
        assert idempotent_equivalent(dup, dupdup)
        assert idempotent_equivalent(x, dupdup)


def test_square_collapse_random():
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randint(1, 14)
        x = [rng.randrange(4) for _ in range(n)]
        i = rng.randint(0, n)
        j = rng.randint(i, n)
        y = x[:j] + x[i:j] + x[j:]
        assert idempotent_equivalent(x, y)


def test_dp_matches_recursive_quadruples_all_ternary_pairs_len5():
    words = []
    for n in range(1, 6):
        words.extend(itertools.product(range(3), repeat=n))
    sigs = dict(zip(words, band_signatures(words)))
    for x in words:
        for y in words:
            assert idempotent_equivalent(x, y) == (sigs[x] == sigs[y])


def test_dp_matches_rewriting_closure_components():
    for alpha, cap, maxlen in ((2, 15, 5), (3, 9, 5)):
        comp = rewrite_closure_classes(alpha, cap)
        words = [
            w
            for n in range(1, maxlen + 1)
            for w in itertools.product(range(alpha), repeat=n)
        ]
        for x in words:
            for y in words:
                if (comp[x] == comp[y]) != idempotent_equivalent(x, y):
                    raise AssertionError((x, y))


def test_three_letter_classes_need_length_eight():
    words = [w for n in range(1, 8) for w in itertools.product(range(3), repeat=n)]
    assert len(set(band_signatures(words))) + 1 == 148  # twelve classes only appear at length 8


def test_dp_matches_recursive_quadruples_at_the_alphabet_cap():
    # 64 letters and the separator: 65 ranks of essential factors
    rng = random.Random(64)
    for _ in range(3):
        x = rng.sample(range(64), 64) + [rng.randrange(64) for _ in range(rng.randint(0, 40))]
        i = rng.randint(0, len(x))
        j = rng.randint(i, len(x))
        inflated = x[:j] + x[i:j] + x[j:]
        for y in (inflated, x[::-1]):
            sx, sy = band_signatures([x, y])
            assert idempotent_equivalent(x, y) == (sx == sy)
        assert idempotent_equivalent(x, inflated)


def test_alphabet_bound():
    with pytest.raises(ValueError):
        idempotent_equivalent(list(range(65)), list(range(65)))
