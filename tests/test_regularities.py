import itertools
import math
import random

import pytest

from stringology.oracles import (
    attractor_refinement,
    factor_search,
    hole_word_local_periods,
    naive_shortest_cover,
)
from stringology.regularities import (
    anticover_is_valid,
    attractor_construct,
    is_attractor,
    local_period_holds,
    rle_find,
    rle_shortest_cover,
    two_anticover,
)
from stringology.rle import rle_decode, rle_encode
from stringology.words import HOLE, SizeLimitError, fibonacci_word, thue_morse

from helpers import letters


def tightness_example():
    """One-hole word with coprime local periods 5 and 7 but not 1."""
    return [0, 1, 0, 1, 0, 0, 1, 0, 1, 0, HOLE]


# ------------------------------------------------------------- attractors


def test_attractor_examples():
    tm4 = thue_morse(4)
    assert is_attractor(tm4, {4, 6, 8, 12})
    assert is_attractor(tm4, {4, 8, 10, 12})
    fib5 = fibonacci_word(5)
    assert is_attractor(fib5, {4, 7})
    assert is_attractor(fib5, {6, 7})
    assert not is_attractor(fib5, {8, 9})
    assert is_attractor(letters("abc"), {0, 1, 2})


def test_attractor_full_positions_always_true():
    rng = random.Random(3)
    for _ in range(50):
        w = [rng.randrange(3) for _ in range(rng.randint(1, 40))]
        assert is_attractor(w, set(range(len(w))))


def test_attractor_position_out_of_range():
    with pytest.raises(ValueError):
        is_attractor([0, 1], {2})


def test_attractor_empty_word_and_empty_set():
    assert is_attractor([], set())
    assert not is_attractor([0], set())
    assert not is_attractor(letters("abab"), [])


def test_attractor_rejects_holes():
    for positions in ({1}, {0, 1, 2}, set()):
        with pytest.raises(ValueError, match="non-negative"):
            is_attractor([0, HOLE, 0], positions)


def test_attractor_agrees_with_oracle_exhaustive():
    # every binary word of length <= 7 and ternary word of length <= 5,
    # each with every subset of its positions
    for sigma, max_len in ((2, 7), (3, 5)):
        for n in range(max_len + 1):
            for w in itertools.product(range(sigma), repeat=n):
                for mask in range(1 << n):
                    s = [i for i in range(n) if mask >> i & 1]
                    assert is_attractor(w, s) == attractor_refinement(w, s), (w, s)


def test_attractor_unary_words_agree_with_oracle():
    # each suffix of a^n but the longest is a prefix of its neighbour in
    # suffix order, so those leaves are skipped and the intervals decide
    rng = random.Random(19)
    for n in range(41):
        w = [5] * n
        sets = [set(), set(range(n))] + [{i} for i in range(n)]
        sets += [{i for i in range(n) if rng.random() < 0.3} for _ in range(5)]
        for s in sets:
            assert is_attractor(w, s) == attractor_refinement(w, s) == (n == 0 or bool(s))


def _attractor_sets(rng, n):
    """Sets near the all-positions attractor, and sparse ones."""
    every = set(range(n))
    sets = [every, every - {rng.randrange(n)}, set(rng.sample(range(n), n // 2))]
    return sets + [every - set(rng.sample(range(n), 3))]


def test_attractor_multibyte_keys_agree_with_oracle():
    # CPython stores the key in the narrowest string kind that holds its top
    # rank: ASCII up to 128 symbols, Latin-1 up to 256, UCS-2 beyond
    rng = random.Random(23)
    for sigma in (128, 129, 256, 257, 300):
        for _ in range(3):
            block = list(range(sigma)) + [rng.randrange(sigma) for _ in range(rng.randint(0, 40))]
            rng.shuffle(block)
            for s in _attractor_sets(rng, len(block)):
                assert is_attractor(block, s) == attractor_refinement(block, s), (block, s)
            # a word of period p: any p consecutive positions attract it, and
            # none of them can go if its symbol occurs once in the period
            p = len(block)
            w = block + block + block[:rng.randrange(p)]
            start = rng.randrange(len(w) - p + 1)
            window = set(range(start, start + p))
            once = [q for q in sorted(window) if block.count(w[q]) == 1]
            for s in (window, window - {rng.choice(once)}):
                assert is_attractor(w, s) == attractor_refinement(w, s) == (s == window)


def test_attractor_large_symbols_agree_with_oracle():
    # symbols at and past 2^16 are ranked densely, over few and many letters
    rng = random.Random(29)
    for sigma, n in ((2, 60), (5, 60), (270, 300)):
        for _ in range(3):
            symbols = rng.sample(range(1 << 16, 1 << 40), sigma)
            small = list(range(sigma)) + [rng.randrange(sigma) for _ in range(n - sigma)]
            rng.shuffle(small)
            w = [symbols[c] for c in small]
            for s in _attractor_sets(rng, n):
                want = attractor_refinement(w, s)
                assert is_attractor(w, s) == is_attractor(small, s) == want, (w, s)


def test_attractor_errors_come_cap_then_range_then_symbols():
    with pytest.raises(SizeLimitError, match="bounded"):
        is_attractor([HOLE] * 5001, {6000})
    with pytest.raises(ValueError, match="out of range"):
        is_attractor([HOLE, 0], {2})
    with pytest.raises(ValueError, match="non-negative"):
        is_attractor([HOLE, 0], {1})


def test_attractor_construct_values():
    assert attractor_construct("thue_morse", 5) == {16, 8, 24, 12}
    assert attractor_construct("thue_morse", 4) == {8, 4, 12, 6}
    assert attractor_construct("fibonacci", 5) == {6, 7}


def test_attractor_construct_thresholds():
    with pytest.raises(ValueError):
        attractor_construct("thue_morse", 3)
    with pytest.raises(ValueError):
        attractor_construct("fibonacci", 1)
    with pytest.raises(ValueError):
        attractor_construct("sturmian", 4)


# ----------------------------------------------------------- local periods


def test_local_period_examples():
    x = tightness_example()  # ababaababa + hole
    assert local_period_holds(x, 5)
    assert local_period_holds(x, 7)
    assert not local_period_holds(x, 1)
    assert local_period_holds(x, len(x))
    with pytest.raises(ValueError):
        local_period_holds(x, 0)


def test_local_period_rejects_negative_symbols_other_than_hole():
    for x in ([0, -2, 0], [-3, 1, -3, 1], [HOLE, -2]):
        with pytest.raises(ValueError, match="non-negative or HOLE"):
            local_period_holds(x, 2)
    assert local_period_holds([0, HOLE, 0], 2)


def test_local_periodicity_lemma_exhaustive():
    # one hole, coprime periods p + q <= |x| force local period 1
    for n in range(2, 12):
        for mask in range(1 << (n - 1)):
            base = [(mask >> i) & 1 for i in range(n - 1)]
            for hole_at in range(n):
                x = base[:hole_at] + [HOLE] + base[hole_at:]
                periods = hole_word_local_periods(x)
                for p in periods:
                    for q in periods:
                        if p < q and p + q <= n and math.gcd(p, q) == 1:
                            assert 1 in periods, (x, p, q)


def test_tightness_word_is_tight():
    x = tightness_example()
    assert len(x) == 11 and 5 + 7 - 1 == len(x)


# -------------------------------------------------------------- anticovers


def test_anticover_examples():
    pos = two_anticover(letters("abaacbacca"))
    assert pos is not None
    assert anticover_is_valid(letters("abaacbacca"), pos)
    assert two_anticover(letters("abaababbaab")) is None


def test_anticover_needs_two_letters():
    with pytest.raises(ValueError):
        two_anticover([0])


# ------------------------------------------------------------- rle cover


def test_rle_cover_examples():
    assert rle_shortest_cover(rle_encode([1, 0, 1, 1, 0, 1, 1, 0, 1])) == 3
    assert naive_shortest_cover([1, 0, 1, 1, 0, 1, 1, 0, 1]) == 3
    assert rle_shortest_cover(rle_encode([1, 0, 1])) == 3
    assert rle_shortest_cover(rle_encode([1] * 9)) == 1


def test_rle_cover_large_exponents():
    # run-level periodicity survives huge exponents
    runs = [(1, 2 ** 20), (0, 3), (1, 2 ** 20), (0, 3), (1, 2 ** 20), (0, 3)]
    assert rle_shortest_cover(runs) == 2 ** 20 + 3
    with pytest.raises(ValueError):
        rle_shortest_cover([(0, 2)])


# -------------------------------------------------------------- rle find


def test_rle_find_examples():
    assert rle_find(rle_encode([1, 1]), rle_encode([1, 1, 1]))
    # 110 occurs in 101101 at position 2 (oracle-verified)
    assert factor_search([1, 1, 0], [1, 0, 1, 1, 0, 1])
    assert rle_find(rle_encode([1, 1, 0]), rle_encode([1, 0, 1, 1, 0, 1]))
    assert not rle_find(rle_encode([1, 1, 1]), rle_encode([1, 1, 0, 1, 1]))


def test_rle_find_exhaustive_small():
    for n in range(1, 9):
        for tm in range(1 << (n - 1)):
            y = [1] + [(tm >> i) & 1 for i in range(n - 1)]
            ry = rle_encode(y)
            for m in range(1, n + 1):
                for pm in range(1 << (m - 1)):
                    x = [1] + [(pm >> i) & 1 for i in range(m - 1)]
                    assert rle_find(rle_encode(x), ry) == factor_search(x, y)


def test_rle_find_run_aligned_oracle_big_exponents():
    rng = random.Random(9)

    def occurs_runs(pat, text):
        # direct run-by-run alignment check
        t = len(pat)
        if t == 1:
            return any(b == pat[0][0] and e >= pat[0][1] for b, e in text)
        for j in range(len(text) - t + 1):
            if text[j][0] != pat[0][0] or text[j][1] < pat[0][1]:
                continue
            if text[j + t - 1][0] != pat[-1][0] or text[j + t - 1][1] < pat[-1][1]:
                continue
            if all(text[j + i] == pat[i] for i in range(1, t - 1)):
                return True
        return False

    for _ in range(500):
        tn = rng.randint(1, 14)
        text = [(1 if i % 2 == 0 else 0, rng.randint(1, 2 ** 20)) for i in range(tn)]
        pn = rng.randint(1, 6)
        pat = [(1 if i % 2 == 0 else 0, rng.randint(1, 2 ** 20)) for i in range(pn)]
        if rng.random() < 0.5 and pn <= tn:
            # plant the pattern inside the text to get positive cases too
            j = rng.randrange(0, (tn - pn) // 2 * 2 + 1, 2) if tn > pn else 0
            pat = [list(r) for r in text[j:j + pn]]
            if len(pat) > 1:
                pat[0][1] = rng.randint(1, pat[0][1])
                pat[-1][1] = rng.randint(1, pat[-1][1])
            pat = [tuple(r) for r in pat]
        assert rle_find(pat, text) == occurs_runs(pat, text)


def test_rle_roundtrip_and_form_errors():
    assert rle_encode([1, 1, 1, 0, 0, 0, 0, 1, 1]) == [(1, 3), (0, 4), (1, 2)]
    assert rle_decode([(1, 1)]) == [1]
    with pytest.raises(ValueError):
        rle_encode([0, 1])
    with pytest.raises(ValueError):
        rle_encode([1, 2])
    with pytest.raises(ValueError):
        rle_decode([(1, 2), (1, 1)])
