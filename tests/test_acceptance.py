"""Acceptance suite: one test per criterion, each printing a pass line.

Criterion 1 checks the worked examples directly.  The oracle sweeps and
quantitative bounds behind criteria 2-5 live only in ``selftest.CHECKS``;
one module-scoped run of level full executes each check exactly once, and
the criteria assert on its records by check name.  Two guard tests at the
end fail if a check name repeats or a check runs twice.  Where a stated bound
would be infeasible in pure Python within the runtime budget, a check is
exhaustive up to a documented size and seeded-random beyond it.
"""

import re
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

from stringology import selftest
from stringology.avoidance import (
    fib_factor_test, recover_square, tm_factor_test, unbordered_counts,
)
from stringology.cartesian import ct_border, ct_match, parent_distance
from stringology.codec import (
    compress_pairs,
    entropy,
    hamming_build,
    hamming_encode,
    huffman_cost,
    pairing_partition,
)
from stringology.freeband import psi
from stringology.gf2 import Gf2Poly, LfsrSpec, cycle_nodes, debruijn_two_cycles, lfsr, lfsr_gen
from stringology.patterns import shape_graph_euler_labels, universal_shape_word
from stringology.permgen import gen_sequence, rho_stream, run_generator
from stringology.regularities import is_attractor
from stringology.slp import slp_expand
from stringology.subseq import count_subsequences, min_sub, s_cover_tables
from stringology.words import fibonacci_word, thue_morse

from helpers import bits, letters


def test_criterion_1_worked_example_goldens():
    t0 = perf_counter()

    t = s_cover_tables(bits("01201"), bits("010210201"))
    assert list(t.left) == [0, 1, 2, 2, 3, 3, 4, 4, 4]
    assert list(t.right) == [5, 5, 4, 4, 3, 3, 2, 1, 0]
    assert list(t.p) == [1, 2, 1, 3, 2, 4, 3, 4, 5]

    assert is_attractor(thue_morse(4), {4, 6, 8, 12})
    assert is_attractor(fibonacci_word(5), {6, 7})
    assert not is_attractor(fibonacci_word(5), {8, 9})

    code = hamming_build(3)
    assert hamming_encode(code, bits("1010")) == bits("1010010")

    cost, _ = huffman_cost([0.1, 0.1, 0.3, 0.5])
    assert abs(cost - 1.7) < 1e-12
    assert abs(entropy([0.1, 0.1, 0.3, 0.5]) - 1.68548) < 1e-5

    assert min_sub(letters("bbbbbaeeecffddd"), 5) == letters("acddd")
    assert min_sub(letters("baddbccega"), 7) == letters("abccega")

    assert count_subsequences(letters("abab")) == 12

    u, _, _ = unbordered_counts(8)
    assert u == [1, 2, 2, 4, 6, 12, 20, 40, 74]

    assert not tm_factor_test(bits("111"))
    assert fib_factor_test(letters("baa"))
    assert not fib_factor_test(letters("baaa"))

    assert slp_expand(gen_sequence("zaks", 3)) == [1, 2, 1, 2, 1]
    assert slp_expand(gen_sequence("knuthC", 4)) == [
        int(c) for c in "11121112111311121112111"]
    assert slp_expand(gen_sequence("stj", 4)) == [
        int(c) for c in "21020120210201202102012"]

    assert run_generator("heap", 6, start=range(6))[-1] == (3, 4, 1, 2, 5, 0)

    assert list(rho_stream(14)) == [1, 2, 1, 2, 1, 3, 1, 2, 1, 2, 1, 3, 1, 2]

    assert lfsr(LfsrSpec((1, 1, 0))) == bits("001011100")
    gen = lfsr_gen(LfsrSpec((1, 0, 1, 0, 0)))
    assert [tuple(w) for w in gen[:6]] == [
        tuple(bits(s)) for s in
        ("00001", "00010", "00100", "01001", "10010", "00101")
    ]

    w, uu = debruijn_two_cycles(Gf2Poly.from_exponents([4, 3, 0]))
    assert w == bits("000111101011001")
    assert uu == bits("111000010100110")
    assert cycle_nodes(w, 4) == [1, 3, 7, 15, 14, 13, 10, 5, 11, 6, 12, 9, 2, 4, 8]

    q = psi(letters("ababbbcbcbc"))
    assert (list(q.prefix), q.first_new, q.last_new, list(q.suffix)) == (
        letters("ababbb"), letters("c")[0], letters("a")[0], letters("bbbcbcbc"))

    x = [3, 1, 6, 4, 8, 6, 7, 5, 9]
    assert parent_distance(x) == [0, 0, 1, 2, 1, 2, 1, 4, 1]
    assert ct_border(x) == [-1, 0, 0, 1, 2, 3, 4, 1, 2]
    y = [10, 12, 16, 15, 6, 14, 9, 12, 11, 14, 9, 17, 12, 10, 12]
    assert ct_match(x, y) == [3]

    assert shape_graph_euler_labels(3) == [1, 1, 2, 2, 3, 3]
    assert universal_shape_word(3) == [7, 8, 6, 1, 3, 2, 4, 5]

    assert recover_square(letters("abacba"), [1, 2, 0, 1, 2, 0]) == letters("abab")

    part = pairing_partition(letters("abcacbabcbac"))
    out = compress_pairs(letters("abcacbabcbac"), part)
    assert out == [3, 2, 0, 4, 3, 4, 0, 2] and len(out) == 8

    elapsed = perf_counter() - t0
    assert elapsed < 1.0, f"golden suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 worked-example goldens: PASS ({elapsed:.2f}s)")


# The nine areas of criterion 2 -> the selftest checks whose sweeps cover it.
ORACLE_AREAS = {
    "scover": ["s-cover check vs coverage oracle (exhaustive small)",
               "s-cover check vs coverage oracle (all |y| <= 14, |x| <= 4)",
               "s-cover check vs coverage oracle (structured y of length 1000 and 1024)"],
    "anticover": ["anticover vs exhaustive subset search (all |x| <= 14)"],
    "subseq": ["counting: subsequence DP vs enumeration (length <= 12)",
               "minsub equals exhaustive minimum (length <= 10)",
               "minsub / counting vs enumeration (length <= 14)",
               "lcs equals the table-DP oracle, positions and ties (random, length <= 40; "
               "long left runs, length <= 200)",
               "LPS length vs exhaustive palindromic search (length <= 15)"],
    "distinguish": ["distinguisher bound and membership (exhaustive n <= 8)",
                    "distinguisher length bound (all pairs n <= 10, samples to 12)"],
    "factors": ["factor tests vs direct scans (length <= 11)",
                "factor tests vs direct scans (all lengths <= 14)"],
    "freeband": ["free band DP vs recursive quadruples (3 letters, len <= 7)",
                 "free band class counts saturate at 7 and 160"],
    "index": ["suffix tree equals the suffix-grouping and sorted-suffix oracles "
              "(484 words of length <= 300; the five index families at 512 and 1024)",
              "cartesian matching (10^3 words) and sub-table oracles (1872 words)"],
    "rle": ["rle cover vs naive cover (exhaustive length <= 13)",
            "rle cover vs naive cover (exhaustive length <= 18)"],
    "attractor": ["attractor suffix-array check vs rank-refinement oracle "
                  "(random over <= 300 symbols, length <= 40; Thue-Morse k <= 7, "
                  "Fibonacci k <= 10)",
                  "attractor suffix-array check vs rank-refinement oracle "
                  "(Thue-Morse k = 8, Fibonacci k = 11; kernel sizes)"],
}

BOUND_CHECKS = [
    "pairing bound |compressed| <= 3/4 |x| (10^4 draws)",
    "Huffman sandwich and exact Kraft equality (10^4 draws)",
    "wildcard index size bound, random words to n = 2000",
    "Hamming distance >= 3 and full 1-error sweep (r=3,4)",
    "jump identity, exhaustive n <= 8",
    "superpattern embeds all 8! permutations",
]

GENERATOR_CHECKS = [
    "generator completeness, every kind, n <= 6",
    "generator completeness n = 7 and universal shapes n <= 6",
    "ring words for all k <= 6 and admissible n",
    "LFSR windows distinct iff primitive, degrees <= 8",
]


@pytest.fixture(scope="module")
def full_run():
    """One run of level full, every check wrapped to count its calls:
    ({name: Result}, Counter of calls by name)."""
    calls = Counter()

    def counted(name, fn):
        def wrapper():
            calls[name] += 1
            fn()
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selftest, "CHECKS",
                   [(name, lvl, counted(name, fn)) for name, lvl, fn in selftest.CHECKS])
        records = list(selftest.results("full"))
    return {r.name: r for r in records}, calls


def passed_seconds(results, names):
    """Summed seconds of the named checks, each of which ran and passed."""
    for name in names:
        assert name in results, f"no selftest check named {name!r}"
        assert results[name].error is None, f"{name}: {results[name].error}"
    return sum(results[name].seconds for name in names)


def test_criterion_2_exhaustive_oracle_equivalences(full_run):
    results, _ = full_run
    secs = {area: passed_seconds(results, names) for area, names in ORACLE_AREAS.items()}
    for area, t in secs.items():
        assert t < 60, f"{area} checks took {t:.0f}s"
    print("\nACCEPTANCE 2 exhaustive oracle equivalences: PASS ("
          + ", ".join(f"{area} {t:.0f}s" for area, t in secs.items()) + ")")


def test_criterion_3_quantitative_bounds(full_run):
    results, _ = full_run
    t = passed_seconds(results, BOUND_CHECKS)
    print(f"\nACCEPTANCE 3 quantitative bounds: PASS ({t:.0f}s)")


def test_criterion_4_generator_completeness(full_run):
    results, _ = full_run
    t0 = perf_counter()
    assert [  # the worked n = 3 and n = 4 traces
        "".join(map(str, p)) for p in run_generator("zaks", 3)
    ] == ["123", "213", "312", "132", "231", "321"]
    assert [
        "".join(map(str, p)) for p in run_generator("knuthC", 3)
    ] == ["123", "231", "312", "213", "132", "321"]
    assert ["".join(map(str, p)) for p in run_generator("knuthC", 4)] == [
        "1234", "2341", "3412", "4123", "2314", "3142", "1423", "4231",
        "3124", "1243", "2431", "4312", "2134", "1342", "3421", "4213",
        "1324", "3241", "2413", "4132", "3214", "2143", "1432", "4321",
    ]
    t = perf_counter() - t0 + passed_seconds(results, GENERATOR_CHECKS)
    print(f"\nACCEPTANCE 4 generator completeness: PASS ({t:.0f}s)")


def test_criterion_5_selftest_levels(full_run):
    results, _ = full_run
    failed = [f"{r.name}: {r.error}" for r in results.values() if r.error is not None]
    assert not failed, failed
    fast = sum(r.seconds for r in results.values() if r.level == "fast")
    full = sum(r.seconds for r in results.values())
    assert fast < 30, f"fast selftest took {fast:.0f}s"
    assert full < 900, f"full selftest took {full:.0f}s"
    print(f"\nACCEPTANCE 5 selftest levels: PASS (fast {fast:.0f}s, full {full:.0f}s)")


def test_selftest_check_names_unique():
    names = [name for name, _, _ in selftest.CHECKS]
    assert len(names) == len(set(names))


def test_every_check_runs_exactly_once(full_run):
    results, calls = full_run
    names = [name for name, _, _ in selftest.CHECKS]
    assert list(results) == names
    assert calls == Counter(names), {name: n for name, n in calls.items() if n != 1}
    # a direct call of a check function would run it a second time
    for path in Path(__file__).parent.glob("*.py"):
        assert not re.search(r"selftest\._", path.read_text()), path.name
