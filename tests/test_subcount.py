import itertools

from stringology import oracles
from stringology.subcount import dif_table_marking, dif_table_minleaf, sub_table
from stringology.suffixtree import suffix_tree

from helpers import letters


def test_abaab_golden():
    sub, dif = sub_table(letters("abaab"))
    assert dif[0] == 6 and sub[0] == 6
    assert dif[1] == 5 and sub[1] == 11
    assert dif[2] == 3 and sub[2] == 14  # the weight of edge ab$
    assert sub == [6, 11, 14, 15, 16, 17]


def test_dif_table_matches_first_occurrence_oracle():
    assert oracles.dif_table(letters("abaab")) == [6, 5, 3, 1, 1, 1]
    assert oracles.dif_table([]) == [1]


def test_dif_tables_agree_on_every_short_word():
    words = [list(w) for n in range(13) for w in itertools.product(range(2), repeat=n)]
    words += [list(w) for n in range(8) for w in itertools.product(range(3), repeat=n)]
    for w in words:
        t = suffix_tree(w)
        dif = dif_table_marking(t)
        assert dif == dif_table_minleaf(t) == oracles.dif_table(w), w
        assert sub_table(w) == ([sum(dif[:k + 1]) for k in range(len(dif))], dif), w
