import random

import pytest

from stringology import oracles
from stringology.avoidance import (
    doubling_code,
    fib_factor_test,
    grasshopper_cubefree_word,
    grasshopper_squarefree_word,
    interleave_fold,
    is_grasshopper_subsequence,
    is_square_free,
    list_squarefree,
    list_squarefree_random,
    recover_square,
    squarefree_ternary,
    ternary_no_palprefix,
    tm_factor_test,
    unbordered_counts,
    unbordered_weighted,
    xor_fold,
)
from stringology.words import thue_morse


def letters(s):
    return [ord(c) - ord("a") for c in s]


def bits(s):
    return [int(c) for c in s]


# -------------------------------------------------------------- factor tests


def test_tm_factor_examples():
    assert not tm_factor_test(bits("111"))
    assert not tm_factor_test(bits("000"))
    assert tm_factor_test(bits("01101001"))


def test_tm_factor_closure_under_factors():
    rng = random.Random(21)
    tm = thue_morse(14)
    for _ in range(200):
        n = rng.randint(1, 30)
        start = rng.randrange(len(tm) - n)
        w = tm[start:start + n]
        assert tm_factor_test(w)
        i = rng.randint(0, n - 1)
        j = rng.randint(i + 1, n)
        assert tm_factor_test(w[i:j])


def test_fib_factor_examples():
    assert fib_factor_test(letters("baa"))
    assert not fib_factor_test(letters("baaa"))


@pytest.mark.parametrize("test", [tm_factor_test, fib_factor_test])
@pytest.mark.parametrize("word", [[2], [0, 1, 1, 0, 2], [5, 5], [0, 1, 2], [-1, 0]])
def test_factor_tests_reject_non_binary_symbols(test, word):
    with pytest.raises(ValueError):
        test(word)


# -------------------------------------------------------------- grasshoppers


def test_doubling_code_example():
    # a -> a a', b -> b b', c -> c c'
    assert doubling_code([0, 1, 2]) == [0, 1, 2, 3, 4, 5]


def test_squarefree_ternary_source():
    w = squarefree_ternary(300)
    assert is_square_free(w)


def test_grasshopper_squarefree_outputs():
    assert grasshopper_squarefree_word(1) == [0]
    for n in range(1, 21):
        w = grasshopper_squarefree_word(n)
        assert len(w) == n
        assert not oracles.grasshopper_square_exists(w)
        assert all((s % 2 == 1) == (i % 2 == 1) for i, s in enumerate(w))


def test_grasshopper_square_oracle_sanity():
    assert oracles.grasshopper_square_exists(letters("abbab"))  # bb
    assert oracles.grasshopper_square_exists(letters("aba"))    # a_a
    assert not oracles.grasshopper_square_exists(letters("abc"))


def test_grasshopper_cubefree_outputs():
    assert grasshopper_cubefree_word(2) == [0, 0]
    assert grasshopper_cubefree_word(6) == [0, 0, 1, 1, 2, 2]
    for n in range(1, 19):
        w = grasshopper_cubefree_word(n)
        assert len(w) == n
        assert set(w) <= {0, 1, 2}
        assert not oracles.grasshopper_cube_exists(w)


def test_cited_padding_coding_is_not_cube_safe():
    # the cca/ccb coding yields ccc by jumps of one and two from length 4 on
    from stringology.avoidance import c_padding_code

    w = c_padding_code([0, 1, 1, 0])
    assert w == [2, 2, 0, 2, 2, 1, 2, 2, 1, 2, 2, 0]
    assert oracles.grasshopper_cube_exists(w[:4])


def test_grasshopper_cube_oracle_sanity():
    assert oracles.grasshopper_cube_exists(letters("abbab"))  # bbb by jumps
    assert not oracles.grasshopper_cube_exists(letters("bbaabbaa"))


def test_recover_square_worked_example():
    # z = a'baa'ba over the primed 6-letter alphabet
    z = [1, 2, 0, 1, 2, 0]
    assert recover_square(letters("abacba"), z) == letters("abab")
    # the same square grasshopper-occurs in Phi(ababa)
    assert recover_square(letters("ababa"), z, verify_occurrence=True) == letters("abab")


def test_recover_square_even_fill_skips_trim():
    # z = a a' b b' twice: fill already lands on code boundaries
    z = [0, 1, 2, 3, 0, 1, 2, 3]
    v = recover_square(letters("abab"), z, verify_occurrence=True)
    assert v == letters("abab")


def test_recover_square_validation():
    with pytest.raises(ValueError):
        recover_square(letters("abc"), [0, 1, 2])  # not a square
    with pytest.raises(ValueError):
        recover_square(letters("abacba"), [1, 2, 0, 1, 2, 0], verify_occurrence=True)


def test_recover_square_random_injections():
    rng = random.Random(23)
    done = 0
    while done < 60:
        n = rng.randint(2, 7)
        x = [rng.randrange(3) for _ in range(n)]
        if is_square_free(x):
            continue
        y = doubling_code(x)
        # hunt a grasshopper square in y by brute force over jump paths
        found = None

        def dfs(path):
            nonlocal found
            if found:
                return
            L = len(path)
            if L >= 2 and L % 2 == 0:
                w = [y[p] for p in path]
                if w[:L // 2] == w[L // 2:]:
                    found = list(path)
                    return
            for d in (1, 2):
                nxt = path[-1] + d
                if nxt < len(y):
                    path.append(nxt)
                    dfs(path)
                    path.pop()
                    if found:
                        return

        for s in range(len(y)):
            dfs([s])
            if found:
                break
        if not found:
            continue
        done += 1
        z = [y[p] for p in found]
        v = recover_square(x, z, verify_occurrence=True)
        assert len(v) >= len(z) // 2
        assert len(v) % 2 == 0 and v[:len(v) // 2] == v[len(v) // 2:]
        assert oracles.factor_search(v, x)


def test_grasshopper_membership_checker():
    y = letters("abcabc")
    assert is_grasshopper_subsequence(letters("acb"), y)  # a(0) c(2) b(4)
    assert not is_grasshopper_subsequence(letters("aa"), y)


# ----------------------------------------------------------------- counting


def test_unbordered_sequence_golden():
    u, v, t = unbordered_counts(8)
    assert u == [1, 2, 2, 4, 6, 12, 20, 40, 74]
    assert v == u


def test_unbordered_growth_bound():
    u, _, _ = unbordered_counts(40)
    for n in range(41):
        assert u[n] >= 2 ** (n / 2) - 1e-9


def test_unbordered_weighted():
    u, _, _ = unbordered_counts(20)
    for n in range(21):
        assert sum(unbordered_weighted(n, k) for k in range(n + 1)) == u[n]
    for n in range(2, 20):
        assert unbordered_weighted(n, 0) == 0
        assert unbordered_weighted(n, n) == 0
    for n in range(11):
        for k in range(n + 1):
            want = sum(
                1
                for mask in range(1 << n)
                if bin(mask).count("1") == k
                and not oracles.is_bordered([(mask >> i) & 1 for i in range(n)])
            )
            assert unbordered_weighted(n, k) == want


def test_fold_bijections():
    for n in range(1, 15):
        for mask in range(1 << n):
            w = [(mask >> i) & 1 for i in range(n)]
            assert oracles.is_bordered(w) == oracles.has_even_palindromic_prefix(
                interleave_fold(w)
            )
            is_odd_pal = n >= 3 and n % 2 == 1 and w == w[::-1]
            img = xor_fold(w)
            img_even_pal = len(img) >= 2 and len(img) % 2 == 0 and img == img[::-1]
            assert is_odd_pal == img_even_pal


def test_ternary_no_palprefix():
    assert ternary_no_palprefix(1) == 3
    for n in range(13):
        want = sum(
            1
            for w in _ternary(n)
            if not oracles.has_any_palindromic_prefix(w)
        )
        assert ternary_no_palprefix(n) == want
    for n in range(13, 101):
        assert ternary_no_palprefix(n) == 3 * ternary_no_palprefix(n - 1) - ternary_no_palprefix((n + 1) // 2)


def _ternary(n):
    out = [[]]
    for _ in range(n):
        out = [w + [c] for w in out for c in range(3)]
    return out


# ------------------------------------------------ list-constrained square-free


def is_list_constrained(w, lists):
    return len(w) == len(lists) and all(s in li for s, li in zip(w, lists))


def test_nine_list_example_passes_checker():
    lists = [
        letters("abce"), letters("bcde"), letters("acde"), letters("cabe"),
        letters("abc"), letters("bcd"), letters("abcde"), letters("acde"),
        letters("cabd"),
    ]
    w = letters("abcabdbca")
    assert is_square_free(w)
    assert is_list_constrained(w, lists)


def test_h_run_is_deterministic_and_traced():
    rng = random.Random(29)
    lists = [rng.sample(range(9), 5) for _ in range(6)]
    control = [rng.randint(1, 5) for _ in range(48)]
    t1 = list_squarefree(lists, control)
    t2 = list_squarefree(lists, control)
    assert t1 == t2
    assert is_square_free(list(t1.word))
    pushes = t1.ops.count("push")
    pops = t1.ops.count("pop")
    if len(t1.word) < len(lists):
        assert pushes == 48
        assert pops == 48 - len(t1.word)
    else:
        assert pushes - pops == len(lists)


def test_h_validation():
    with pytest.raises(ValueError):
        list_squarefree([[1, 2, 3]], [1] * 8)
    with pytest.raises(ValueError):
        list_squarefree([[0, 1, 2, 3, 4]], [1] * 7)
    with pytest.raises(ValueError):
        list_squarefree([[0, 1, 2, 3, 4]], [6] * 8)


def test_randomized_driver_small_and_constrained():
    rng = random.Random(31)
    for trial in range(25):
        n = rng.randint(1, 12)
        lists = [rng.sample(range(10), 5) for _ in range(n)]
        word, tries = list_squarefree_random(lists, seed=trial)
        assert is_square_free(word)
        assert is_list_constrained(word, lists)
        assert tries >= 1


def test_trivial_lengths_always_succeed_quickly():
    rng = random.Random(33)
    for n in range(1, 6):
        lists = [rng.sample(range(6), 5) for _ in range(n)]
        word, _ = list_squarefree_random(lists, seed=n)
        assert len(word) == n
