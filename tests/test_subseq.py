import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringology.oracles import (
    lcs_table,
    min_subsequence_of_length,
    palindromic_subseq_longest,
)
from stringology.subseq import (
    count_subsequences,
    distinguisher_candidates,
    distinguishing_subsequence,
    hard_pair,
    lcs,
    longest_palindromic_subsequence,
    max_subs,
    min_sub,
    s_cover_check,
    s_cover_check_naive,
    s_cover_positions_naive,
    s_cover_tables,
    shortest_s_cover_naive,
)
from stringology.words import (
    SizeLimitError,
    all_subsequences,
    fibonacci_word,
    is_subsequence,
    thue_morse,
)

from helpers import bits, letters


# ---------------------------------------------------------------- s-covers


def test_s_cover_examples():
    assert s_cover_check(bits("010"), bits("0110110"))
    assert s_cover_check(bits("010"), bits("000011000"))
    assert not s_cover_check(bits("0101"), bits("0110110"))
    assert not s_cover_check(bits("010010"), bits("0110110"))


def test_s_cover_tables_golden():
    t = s_cover_tables(bits("01201"), bits("010210201"))
    assert list(t.first) == [0, 1, 3, 5, 8]
    assert list(t.last) == [2, 4, 6, 7, 8]
    assert list(t.left) == [0, 1, 2, 2, 3, 3, 4, 4, 4]
    assert list(t.right) == [5, 5, 4, 4, 3, 3, 2, 1, 0]
    assert list(t.p) == [1, 2, 1, 3, 2, 4, 3, 4, 5]


def test_s_cover_tables_follow_the_definition():
    # L: least position tuple spelling x with p_1 = 0; R: greatest with
    # q_m = n-1; LEFT and RIGHT count them by definition; P[i] is the longest
    # prefix of x that ends with y[i] and embeds in y[:i+1]
    xs = [x for m in range(1, 5) for x in itertools.product(range(3), repeat=m)]
    for n in range(2, 8):
        for y in itertools.product(range(3), repeat=n):
            first, last = {}, {}
            for m in range(1, min(4, n - 1) + 1):
                for pos in itertools.combinations(range(n), m):
                    word = tuple(y[i] for i in pos)
                    if pos[0] == 0:
                        first[word] = min(first.get(word, pos), pos)
                    if pos[-1] == n - 1:
                        last[word] = max(last.get(word, pos), pos)
            for x in xs:
                if len(x) >= n:
                    continue
                t = s_cover_tables(list(x), list(y))
                if x not in first or x not in last:
                    assert t is None, (x, y)
                    continue
                assert (t.first, t.last) == (first[x], last[x]), (x, y)
                assert t.left == tuple(sum(k < i for k in t.first) for i in range(n))
                assert t.right == tuple(sum(k > i for k in t.last) for i in range(n))
                assert t.p == tuple(
                    max((k + 1 for k in range(len(x))
                         if x[k] == y[i] and is_subsequence(x[:k + 1], y[:i + 1])), default=0)
                    for i in range(n)), (x, y)


def test_s_cover_predicate_components_match_result():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(2, 16)
        y = [rng.randrange(3) for _ in range(n)]
        x = [rng.randrange(3) for _ in range(rng.randint(1, n - 1))]
        t = s_cover_tables(x, y)
        got = s_cover_check(x, y)
        if t is None:
            assert not got
        else:
            psi = all(p > 0 and p + r >= len(x) for p, r in zip(t.p, t.right))
            assert psi == got
        assert got == s_cover_check_naive(x, y)


def test_s_cover_requires_shorter_pattern():
    with pytest.raises(ValueError):
        s_cover_check(bits("01"), bits("01"))


def test_shortest_s_cover_examples():
    assert shortest_s_cover_naive(bits("0110110")) == bits("010")
    assert shortest_s_cover_naive(bits("0000")) == [0]
    assert shortest_s_cover_naive(bits("01")) == bits("01")


def test_shortest_s_cover_candidates_agree_with_fast_check():
    # shorter y are swept by the selftest's exhaustive s-cover check
    n = 10
    for mask in range(1 << n):
        y = [(mask >> i) & 1 for i in range(n)]
        for cand in sorted(all_subsequences(y), key=lambda c: (len(c), c)):
            if not 1 <= len(cand) < len(y):
                continue
            assert s_cover_check(cand, y) == s_cover_check_naive(cand, y)


def test_covered_positions_definition():
    # position subsets from the oracle match the check on a worked case
    y = bits("0110110")
    assert s_cover_positions_naive(bits("010"), y) == set(range(7))
    assert 6 not in s_cover_positions_naive(bits("0101"), y)


# ----------------------------------------------------------- distinguishers


def test_distinguisher_worked_examples():
    z = distinguishing_subsequence(letters("ababababab"), letters("ababaababb"))
    assert z == letters("bbbaa")
    z = distinguishing_subsequence(letters("abababababa"), letters("ababaaabbba"))
    assert z == letters("bbbaaa")


def test_distinguisher_candidate_lengths_sum():
    rng = random.Random(6)
    count = 0
    while count < 200:
        n = rng.randint(2, 20)
        x = [rng.randrange(2) for _ in range(n)]
        y = [rng.randrange(2) for _ in range(n)]
        if x == y or x.count(0) != y.count(0):
            continue
        count += 1
        z1, z2 = distinguisher_candidates(x, y)
        assert len(z1) + len(z2) == n + 2


def test_distinguisher_fast_path():
    z = distinguishing_subsequence(letters("aa"), letters("ab"))
    assert len(z) <= 2
    assert is_subsequence(z, letters("aa")) != is_subsequence(z, letters("ab"))


def test_distinguisher_errors():
    with pytest.raises(ValueError):
        distinguishing_subsequence([0, 1], [0, 1])
    with pytest.raises(ValueError):
        distinguishing_subsequence([0], [0, 1])
    with pytest.raises(ValueError):
        distinguishing_subsequence([0, 2], [1, 0])


def test_hard_pairs():
    assert hard_pair(4) == (letters("abab"), letters("baba"))
    assert hard_pair(5) == (letters("ababa"), letters("babaa"))


# ------------------------------------------------------------------ MinSub


def test_min_sub_examples():
    assert min_sub(letters("bbbbbaeeecffddd"), 5) == letters("acddd")
    assert min_sub(letters("baddbccega"), 7) == letters("abccega")
    w = letters("zyxw")
    assert min_sub(w, len(w)) == w
    with pytest.raises(ValueError):
        min_sub([0, 1], 3)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=11), st.data())
@settings(max_examples=150)
def test_min_sub_matches_enumeration(w, data):
    k = data.draw(st.integers(1, len(w)))
    assert tuple(min_sub(w, k)) == min_subsequence_of_length(w, k)


# --------------------------------------------------------------------- LCS


def test_lcs_examples():
    a, b = lcs(letters("abc"), letters("abc"))
    assert a == b == [0, 1, 2]
    a, b = lcs(letters("abc"), letters("cba"))
    assert len(a) == 1
    # a length-4 common subsequence (such as abcd) exists; the maximum is 5,
    # witnessed by the palindrome dcacd
    a, b = lcs(letters("dcabcdba"), letters("dcabcdba")[::-1])
    assert len(a) == 5
    assert is_subsequence(letters("abcd"), letters("dcabcdba"))
    assert is_subsequence(letters("abcd"), letters("dcabcdba")[::-1])


def test_lcs_positions_are_aligned():
    rng = random.Random(8)
    for _ in range(200):
        u = [rng.randrange(3) for _ in range(rng.randint(0, 25))]
        v = [rng.randrange(3) for _ in range(rng.randint(0, 25))]
        a, b = lcs(u, v)
        assert [u[i] for i in a] == [v[j] for j in b]
        assert all(x < y for x, y in zip(a, a[1:]))
        assert all(x < y for x, y in zip(b, b[1:]))


def test_lcs_is_maximal_small():
    rng = random.Random(10)
    for _ in range(60):
        u = [rng.randrange(2) for _ in range(rng.randint(1, 9))]
        v = [rng.randrange(2) for _ in range(rng.randint(1, 9))]
        a, _ = lcs(u, v)
        best = max(
            (len(s) for s in all_subsequences(u) if s in all_subsequences(v)),
            default=0,
        )
        assert len(a) == best


def test_lcs_equals_table_oracle():
    # the bit-vector rows must reproduce the table DP's traceback exactly,
    # ties included: longest_palindromic_subsequence depends on its choices
    rng = random.Random(12)
    pairs = [([], []), ([], [0, 1]), ([2, 0], []), ([1] * 7, [1] * 4), ([0] * 5, [1] * 5)]
    for _ in range(1500):
        k = rng.randint(1, 5)
        pairs.append(([rng.randrange(k) for _ in range(rng.randint(0, 40))],
                      [rng.randrange(k) for _ in range(rng.randint(0, 40))]))
    tm, fib = thue_morse(9), fibonacci_word(12)
    pairs += [(tm[:n], fib[:n]) for n in (1, 2, 5, 13, 40, 100)]
    for n in (1, 2, 7, 20, 40):  # the call longest_palindromic_subsequence makes
        x = [rng.randrange(3) for _ in range(n)]
        pairs.append((x, x[::-1]))
    pairs.append(([rng.randrange(4) for _ in range(300)], [rng.randrange(4) for _ in range(300)]))
    for u, v in pairs:
        assert lcs(u, v) == lcs_table(u, v), (u, v)


def test_lcs_size_cap():
    with pytest.raises(SizeLimitError):
        lcs([0] * 4001, [0])
    with pytest.raises(SizeLimitError):
        lcs([0], [1] * 4001)


# --------------------------------------------------------------------- LPS


def test_lps_examples():
    # abba and dccd are palindromic subsequences, but dcacd beats them
    got = longest_palindromic_subsequence(letters("dcabcdba"))
    assert len(got) == palindromic_subseq_longest(letters("dcabcdba")) == 5
    assert got == got[::-1]
    assert is_subsequence(got, letters("dcabcdba"))
    assert is_subsequence(letters("abba"), letters("dcabcdba"))
    assert is_subsequence(letters("dccd"), letters("dcabcdba"))


@pytest.mark.parametrize("word, palindrome", [
    ("abracadabra", "abacaba"), ("mississippi", "ississi"), ("dcabcdba", "dcacd"),
    ("banana", "anana"), ("aaaa", "aaaa"),
])
def test_lps_choice_is_pinned(word, palindrome):
    # which longest palindrome is returned follows lcs's traceback ties
    assert longest_palindromic_subsequence(letters(word)) == letters(palindrome)


def test_lps_matches_exhaustive():
    # lengths 10 to 12 are swept exhaustively by the selftest's LPS check
    for n in range(0, 10):
        rng = random.Random(100 + n)
        for _ in range(40):
            w = [rng.randrange(2) for _ in range(n)]
            got = longest_palindromic_subsequence(w)
            assert got == got[::-1]
            assert is_subsequence(got, w)
            assert len(got) == palindromic_subseq_longest(w)


# ---------------------------------------------------------------- counting


def test_count_subsequences_examples():
    assert count_subsequences(letters("abab")) == 12
    assert count_subsequences([]) == 1
    assert max_subs(4) == 12
    assert max_subs(0) == 1


def test_alternating_words_attain_max():
    rng = random.Random(14)
    for _ in range(2000):
        n = rng.randint(0, 40)
        w = [rng.randrange(2) for _ in range(n)]
        assert count_subsequences(w) <= max_subs(n)
    for n in range(0, 30):
        w = [i % 2 for i in range(n)]
        assert count_subsequences(w) == max_subs(n)
