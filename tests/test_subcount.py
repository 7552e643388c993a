import itertools
import random

from stringology import oracles
from stringology.subcount import dif_table_marking, dif_table_minleaf, sub_table
from stringology.suffixtree import suffix_tree
from stringology.words import all_factors

from helpers import letters


def test_abaab_golden():
    sub, dif = sub_table(letters("abaab"))
    assert dif[0] == 6 and sub[0] == 6
    assert dif[1] == 5 and sub[1] == 11
    assert dif[2] == 3 and sub[2] == 14  # the weight of edge ab$
    assert sub == [6, 11, 14, 15, 16, 17]


def test_algorithms_agree_random():
    rng = random.Random(4)
    for _ in range(400):
        n = rng.randint(1, 120)
        w = [rng.randrange(3) for _ in range(n)]
        t = suffix_tree(w)
        assert dif_table_marking(t) == dif_table_minleaf(t)


def test_dif_table_matches_first_occurrence_oracle():
    assert oracles.dif_table(letters("abaab")) == [6, 5, 3, 1, 1, 1]
    assert oracles.dif_table([]) == [1]
    rng = random.Random(7)
    words = [[0] * 40, [0, 1] * 25] + [
        [rng.randrange(rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 90))]
        for _ in range(150)]
    for w in words:
        t = suffix_tree(w)
        want = oracles.dif_table(w)
        assert dif_table_marking(t) == want
        assert dif_table_minleaf(t) == want


def test_dif_tables_agree_on_every_short_word():
    words = [list(w) for n in range(13) for w in itertools.product(range(2), repeat=n)]
    words += [list(w) for n in range(8) for w in itertools.product(range(3), repeat=n)]
    for w in words:
        t = suffix_tree(w)
        dif = dif_table_marking(t)
        assert dif == dif_table_minleaf(t) == oracles.dif_table(w), w
        assert sub_table(w) == ([sum(dif[:k + 1]) for k in range(len(dif))], dif), w


def test_total_matches_factor_enumeration():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 150)
        w = [rng.randrange(4) for _ in range(n)]
        sub, dif = sub_table(w)
        t = suffix_tree(w)
        assert sub[-1] == len(all_factors(t.text))
        assert len(sub) == len(w) + 1


def test_monotonicity_and_dif_bounds():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 80)
        w = [rng.randrange(3) for _ in range(n)]
        sub, dif = sub_table(w)
        assert all(a <= b for a, b in zip(sub, sub[1:]))
        total = len(w) + 1
        for k, d in enumerate(dif):
            assert 0 <= d <= total - k
