"""Headless property suites: every check prints one pass/fail line.

The fast level re-verifies the worked examples and small oracle sweeps; the
full level runs the exhaustive cross-checks.  ``CHECKS`` is where each
sweep the acceptance test relies on is written, once: ``results`` runs a
level's checks and yields one record each, and ``report`` prints one record;
the ``selftest run`` command is the one loop over both.

A unit test that repeats a check's sweep goes only once the one check covers
its inputs (for a seeded sweep the same draws, or as many from the same
distribution) and its asserts: what the check lacks is folded into it
first, each assert applied to every input.  The unit test's goldens and
error-path asserts stay where they are.
"""

from __future__ import annotations

import math
import random
from itertools import chain, product
from time import perf_counter

from . import oracles
from .avoidance import (
    fib_factor_test, grasshopper_squarefree_word, is_square_free,
    list_squarefree_random, tm_factor_test, unbordered_counts,
    unbordered_weighted,
)
from .cartesian import ct_match, ct_match_naive
from .codec import (
    compress_pairs, entropy, hamming_build, hamming_correct, hamming_encode,
    hamming_syndrome, huffman_cost, kraft_sum, pairing_partition,
)
from .freeband import idempotent_equivalent
from .gf2 import Gf2Poly, LfsrSpec, debruijn_two_cycles, is_primitive, lfsr_gen
from .patterns import (
    embed_permutation, greedy_embedding, is_universal_shape_word, jumps_total,
    superpattern_word, universal_shape_word,
)
from .permgen import KINDS, run_generator
from .regularities import (
    anticover_is_valid, attractor_construct, is_attractor, rle_shortest_cover,
    two_anticover,
)
from .rings import is_ring_word, ring_word
from .rle import rle_decode, rle_encode
from .subcount import dif_table_marking, dif_table_minleaf, sub_table
from .suffixtree import suffix_tree
from .subseq import (
    count_subsequences, distinguishing_subsequence, hard_pair, lcs, max_subs,
    min_sub, s_cover_check, s_cover_check_naive,
)
from .twosat import TwoSatFormula, check_assignment, two_sat_solve
from .wildcard import wildcard_index, wildcard_search
from .words import (
    HOLE, all_factors, all_subsequences, bar, fibonacci_word, is_subsequence,
    thue_morse,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

CHECKS: list[tuple[str, str, Callable[[], None]]] = []


def check(name: str, level: str):
    def deco(fn):
        CHECKS.append((name, level, fn))
        return fn
    return deco


def _bin_words(max_len: int, min_len: int = 1):
    for n in range(min_len, max_len + 1):
        for mask in range(1 << n):
            yield [(mask >> i) & 1 for i in range(n)]


# ------------------------------------------------------------------- fast


@check("rle round-trip, exhaustive length <= 16", "fast")
def _rle_roundtrip():
    for w in _bin_words(15, 0):
        assert rle_decode(rle_encode([1] + w)) == [1] + w


@check("morphic word recurrences", "fast")
def _morphic():
    for k in range(0, 13):
        assert thue_morse(k + 1) == thue_morse(k) + bar(thue_morse(k))
    fibs = [0, 1]
    while len(fibs) < 25:
        fibs.append(fibs[-1] + fibs[-2])
    for k in range(0, 21):
        assert len(fibonacci_word(k)) == fibs[k + 2]


@check("attractor constructions verify", "fast")
def _attractors():
    for k in range(4, 9):
        att = attractor_construct("thue_morse", k)
        assert att == {1 << (k - 1), 1 << (k - 2), (1 << (k - 1)) + (1 << (k - 2)),
                       (1 << (k - 2)) + (1 << (k - 3))}, k
        assert is_attractor(thue_morse(k), att), k
    for k in range(2, 12):
        prev = len(fibonacci_word(k - 1))
        att = attractor_construct("fibonacci", k)
        assert att == {prev - 2, prev - 1} and len(att) == 2, k
        assert is_attractor(fibonacci_word(k), att), k
    assert not is_attractor(fibonacci_word(5), {8, 9})


def attractor_variants(n: int, positions) -> Iterator[set[int]]:
    """The set itself, every set that drops one of its positions and every
    set that adds one position of 0..n-1."""
    base = set(positions)
    yield base
    for p in sorted(base):
        yield base - {p}
    for q in range(n):
        if q not in base:
            yield base | {q}


def _assert_attractor_structured(tm_orders, fib_orders):
    """Thue-Morse and Fibonacci words with each variant of the constructed
    attractor agree with the oracle."""
    words = [("thue_morse", k, thue_morse(k)) for k in tm_orders]
    words += [("fibonacci", k, fibonacci_word(k)) for k in fib_orders]
    for family, k, w in words:
        for s in attractor_variants(len(w), attractor_construct(family, k)):
            assert is_attractor(w, s) == oracles.attractor_refinement(w, s), (family, k, s)


@check("attractor suffix-array check vs rank-refinement oracle "
       "(random over <= 300 symbols, length <= 40; Thue-Morse k <= 7, Fibonacci k <= 10)",
       "fast")
def _attractor_oracle_fast():
    for seed, draws, wide in ((101, 500, 300), (7, 1000, 4)):
        rng = random.Random(seed)
        for draw in range(draws):
            sigma = rng.randint(1, 4 if draw % 2 else wide)
            x = [rng.randrange(sigma) for _ in range(rng.randint(0, 40))]
            density = rng.random()
            s = {i for i in range(len(x)) if rng.random() < density}
            assert is_attractor(x, s) == oracles.attractor_refinement(x, s), (x, s)
    _assert_attractor_structured(range(4, 8), range(2, 11))


@check("2-SAT agrees with truth tables (200 formulas)", "fast")
def _twosat():
    rng = random.Random(11)
    for _ in range(200):
        nv = rng.randint(1, 12)
        clauses = tuple(
            ((rng.randrange(nv), rng.random() < 0.5),
             (rng.randrange(nv), rng.random() < 0.5))
            for _ in range(rng.randint(0, 24))
        )
        f = TwoSatFormula(nv, clauses)
        got = two_sat_solve(f)
        want = oracles.brute_force_sat(f)
        assert (got is None) == (want is None)
        if got is not None:
            assert check_assignment(f, got)


@check("anticover outputs pass the validity checker", "fast")
def _anticover_valid():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(2, 40)
        x = [rng.randrange(4) for _ in range(n)]
        cover = two_anticover(x)
        if cover is not None:
            assert anticover_is_valid(x, cover)
    assert two_anticover([0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1]) is None  # abaababbaab
    assert two_anticover([0, 1, 0, 0, 2, 1, 0, 2, 2, 0]) is not None  # abaacbacca


@check("Huffman sandwich and exact Kraft equality (10^4 draws)", "fast")
def _huffman():
    from fractions import Fraction  # imports re: paid only when the check runs

    rng = random.Random(17)
    for _ in range(10_000):
        n = rng.randint(1, 64)
        raw = [rng.random() + 1e-9 for _ in range(n)]
        s = sum(raw)
        p = [w / s for w in raw]
        cost, depths = huffman_cost(p)
        assert kraft_sum(depths) == Fraction(1)
        h = entropy(p)
        assert h - 1e-9 <= cost <= h + 1 + 1e-9


@check("Hamming distance >= 3 and full 1-error sweep (r=3,4)", "fast")
def _hamming():
    code = hamming_build(3)
    words = [hamming_encode(code, [(m >> i) & 1 for i in range(4)]) for m in range(16)]
    assert len({tuple(w) for w in words}) == 16  # encoding is injective
    for i in range(16):
        for j in range(i + 1, 16):
            assert sum(a != b for a, b in zip(words[i], words[j])) >= 3
    for c in words:
        for pos in range(7):
            y = list(c)
            y[pos] ^= 1
            fixed, err = hamming_correct(code, y)
            assert fixed == c and err == pos
    code4 = hamming_build(4)
    for m in range(1 << 11):
        c = hamming_encode(code4, [(m >> i) & 1 for i in range(11)])
        assert hamming_syndrome(code4, c) == 0
        for pos in range(15):
            y = list(c)
            y[pos] ^= 1
            fixed, err = hamming_correct(code4, y)
            assert fixed == c and err == pos


@check("pairing bound |compressed| <= 3/4 |x| (10^4 draws)", "fast")
def _pairing():
    rng = random.Random(23)
    for _ in range(10_000):
        n = rng.randint(2, 60)
        x = [rng.randrange(6)]
        while len(x) < n:
            c = rng.randrange(6)
            if c != x[-1]:
                x.append(c)
        part = pairing_partition(x)
        assert part.left | part.right >= set(x) and not part.left & part.right, x
        lr = sum(a in part.left and b in part.right for a, b in zip(x, x[1:]))
        assert 4 * lr >= len(x) - 1, (x, lr)  # the greedy split's guarantee
        out = compress_pairs(x, part)
        assert 4 * len(out) <= 3 * len(x), (x, out)


@check("generator completeness, every kind, n <= 6", "fast")
def _generators_fast():
    for kind in KINDS:
        for n in range(2, 7):
            perms = run_generator(kind, n)
            assert len(perms) == math.factorial(n)
            assert len(set(perms)) == math.factorial(n)
            assert perms[0] == tuple(range(1, n + 1)), (kind, n)


@check("superpattern embeds 2000 random permutations (n <= 24)", "fast")
def _superpattern_fast():
    rng = random.Random(31)
    for _ in range(2000):
        n = rng.randint(1, 24)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        pos = embed_permutation(pi)
        word = superpattern_word(n)
        sub = [word[p] for p in pos]
        assert all(p2 > p1 for p1, p2 in zip(pos, pos[1:]))
        for i in range(n):
            for j in range(i + 1, n):
                assert (pi[i] < pi[j]) == (sub[i] < sub[j])


@check("jump identity Jumps(pi) + Jumps(pi+) = 2n+1 (samples)", "fast")
def _jumps_fast():
    rng = random.Random(37)
    for _ in range(2000):
        n = rng.randint(1, 16)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        assert jumps_total(pi, n) + jumps_total([v + 1 for v in pi], n) == 2 * n + 1


@check("ring words for all k <= 6 and admissible n", "fast")
def _rings():
    for k in range(1, 7):
        for n in range(k, (1 << k) + 1):
            w = ring_word(n, k)
            assert len(w) == n and is_ring_word(w, k)


@check("LFSR windows distinct iff primitive, degrees <= 8", "fast")
def _lfsr_iff():
    for n in range(2, 9):
        for mask in range(1, 1 << n):
            taps = tuple((mask >> i) & 1 for i in range(n))
            spec = LfsrSpec(taps)
            windows = lfsr_gen(spec)
            distinct = len({tuple(w) for w in windows}) == len(windows)
            poly = Gf2Poly((1 << n) | mask)
            assert distinct == is_primitive(poly)


@check("two-cycle decomposition orthogonal for listed trinomials", "fast")
def _two_cycles():
    from .rings import cyclic_factors

    for exps in ([3, 1, 0], [4, 1, 0], [5, 2, 0], [6, 1, 0], [7, 1, 0],
                 [9, 4, 0], [10, 3, 0]):
        p = Gf2Poly.from_exponents(exps)
        n = p.degree
        w, u = debruijn_two_cycles(p)
        assert u == [1 - b for b in w]
        assert len(cyclic_factors(w, n)) == (1 << n) - 1
        assert len(cyclic_factors(u, n)) == (1 << n) - 1
        assert not (cyclic_factors(w, n + 1) & cyclic_factors(u, n + 1))
        ones = sum((p.bits >> i) & 1 for i in range(n))
        assert ones % 2 == 0  # tap weight is even for primitive polynomials


@check("list-constrained square-free randomized driver", "fast")
def _listsq():
    rng = random.Random(41)
    for trial in range(30):
        n = rng.randint(1, 12)
        lists = [rng.sample(range(8), 5) for _ in range(n)]
        word, _ = list_squarefree_random(lists, seed=trial)
        assert is_square_free(word)
        assert all(s in li for s, li in zip(word, lists))


@check("free band: equivalence laws and square collapse (samples)", "fast")
def _freeband_fast():
    rng = random.Random(43)
    for _ in range(400):
        n = rng.randint(1, 12)
        x = [rng.randrange(3) for _ in range(n)]
        i = rng.randint(0, len(x))
        j = rng.randint(i, len(x))
        collapsed = x[:i] + x[i:j] + x[i:j] + x[j:]
        assert idempotent_equivalent(collapsed, x) == idempotent_equivalent(x, collapsed)
        assert idempotent_equivalent(collapsed, x)
        assert idempotent_equivalent(x, x)


def _edge_word(tree, v: int) -> list[int]:
    return tree.text[tree.start[v]:tree.end[v]]


def leaves_below(tree, v: int) -> list[int]:
    out = []
    stack = [v]
    while stack:
        u = stack.pop()
        if tree.is_leaf(u):
            out.append(tree.suffix_label[u])
        stack.extend(tree.children[u].values())
    return out


def _assert_side_ranks_match_definition(w) -> None:
    """The side list ``branch(v)`` gives each internal node v of
    ``wildcard_index(w)`` is the sorted ranks, in the tree walk that the
    suffix-tree check validates, of the suffixes that start depth(v) + 1 past
    a leaf below a child of v other than the heavy one; the empty suffix,
    start n, is left out."""
    idx = wildcard_index(w)
    tree = idx.tree
    rank = tree.leaf_ranges()[1]
    for v in range(len(tree.parent)):
        if not tree.children[v]:
            continue
        heavy, side = idx.branch(v)
        starts = [s + tree.depth[v] + 1 for sym, child in tree.children[v].items()
                  if sym != heavy for s in leaves_below(tree, child)]
        assert side == sorted(rank[s] for s in starts if s != tree.n), v


@check("wildcard index: definition of side lists "
       "(random and unary words <= 64, Thue-Morse k <= 7, Fibonacci k <= 10; "
       "the five index families at 512 and 1024)", "fast")
def _wildcard_def():
    rng = random.Random(47)
    words = [[rng.randrange(2) for _ in range(rng.randint(1, 64))] for _ in range(40)]
    words += [[0] * n for n in range(65)]  # one light leaf at every node; none if empty
    words += [[rng.randrange(4) for _ in range(rng.randint(1, 64))] for _ in range(40)]
    rng = random.Random(8)
    words += [[rng.randrange(3) for _ in range(rng.randint(1, 64))] for _ in range(40)]
    rng = random.Random(1)
    words += [w for n in (512, 1024) for w in index_family_words(n, rng)]
    for w in words + [thue_morse(k) for k in range(8)] + [fibonacci_word(k) for k in range(11)]:
        _assert_side_ranks_match_definition(w)


def _assert_search_matches_scan(w, rng, queries: int, sigma: int, holes: float) -> None:
    """Random patterns over sigma letters, one hole at rate holes."""
    idx = wildcard_index(w)
    for _ in range(queries):
        m = rng.randint(1, 6)
        pat = [rng.randrange(sigma) for _ in range(m)]
        if rng.random() < holes:
            pat[rng.randrange(m)] = HOLE
        assert wildcard_search(idx, pat) == oracles.approx_occurs(pat, w), (w, pat)


def _assert_factor_queries_match_scan(w, rng, queries: int, absent: list[int]) -> None:
    """Patterns shaped like the index workload's: text factors of 4 to 12
    symbols, every other one with a hole; then each with one symbol, not
    the hole, swapped for a symbol of ``absent``, which the text lacks."""
    idx = wildcard_index(w)
    for i in range(queries):
        m = rng.randint(4, min(12, len(w)))
        start = rng.randrange(len(w) - m + 1)
        pat = w[start:start + m]
        if i % 2 == 0:
            pat[rng.randrange(m)] = HOLE
        assert wildcard_search(idx, pat) == oracles.approx_occurs(pat, w), (w, pat)
        j = rng.choice([k for k in range(m) if pat[k] != HOLE])
        pat[j] = rng.choice(absent)
        assert not wildcard_search(idx, pat), (w, pat)
        assert not oracles.approx_occurs(pat, w), (w, pat)


@check("wildcard search vs naive scan (random texts; the five index families "
       "at 512 and 1024, with the sentinel value and in-range symbols the text lacks)", "fast")
def _wildcard_search():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 300)
        _assert_search_matches_scan([rng.randrange(2) for _ in range(n)], rng, 60, 2, 0.8)
    rng = random.Random(9)
    for _ in range(40):
        n, sigma = rng.randint(1, 300), rng.choice((2, 2, 3, 4))
        _assert_search_matches_scan([rng.randrange(sigma) for _ in range(n)], rng, 80, sigma, 0.85)
    words = [w for n in (512, 1024) for w in index_family_words(n, random.Random(1))]
    rng = random.Random(10)
    for w in words:
        _assert_factor_queries_match_scan(w, rng, 16, [max(w) + 1])  # the sentinel value
        # odd symbols only: every even one up to the largest is in range and absent
        odd = [2 * c + 1 for c in w]
        _assert_factor_queries_match_scan(odd, rng, 8, list(range(0, max(odd), 2)))


@check("cartesian matching vs naive windows (random)", "fast")
def _ct_fast():
    rng = random.Random(59)
    for _ in range(150):
        m = rng.randint(1, 10)
        x = [rng.randrange(6) for _ in range(m)]
        y = [rng.randrange(6) for _ in range(rng.randint(m, 120))]
        assert ct_match(x, y) == ct_match_naive(x, y)


def _tree_shape(tree) -> list[tuple]:
    """``tree`` in the preorder form of ``oracles.suffix_tree_shape``:
    (parent's preorder index, edge word, suffix label or -1) per node,
    children in symbol order."""
    shape: list[tuple] = []
    stack = [(-1, 0)]
    while stack:
        parent, v = stack.pop()
        shape.append((parent, tuple(_edge_word(tree, v)), tree.suffix_label[v]))
        kids = sorted(tree.children[v].items(), reverse=True)  # popped in symbol order
        stack.extend((len(shape) - 1, c) for _, c in kids)
    return shape


def index_family_words(n: int, rng: random.Random) -> list[list[int]]:
    """The five word families of the benchmark's index workload at length n:
    Thue-Morse and Fibonacci prefixes, random binary, random 4-letter and
    unary words."""
    fib = 1
    while len(fibonacci_word(fib)) < n:
        fib += 1
    return [thue_morse(max(n - 1, 1).bit_length())[:n], fibonacci_word(fib)[:n],
            [rng.randrange(2) for _ in range(n)], [rng.randrange(4) for _ in range(n)],
            [0] * n]


def assert_tree_bookkeeping(tree) -> None:
    """The arrays the builder fills in beside the edges: each depth is the
    parent's plus the edge length, each leaf is labelled n - depth and no
    other node is labelled."""
    parent, depth, label = tree.parent, tree.depth, tree.suffix_label
    assert depth[0] == 0 and label[0] == -1
    for v in range(1, len(parent)):
        assert depth[v] == depth[parent[v]] + tree.end[v] - tree.start[v], v
        assert label[v] == (tree.n - depth[v] if not tree.children[v] else -1), v


@check("suffix tree equals the suffix-grouping and sorted-suffix oracles "
       "(484 words of length <= 300; the five index families at 512 and 1024)", "fast")
def _suffix_tree_fast():
    rng = random.Random(1)
    words = [w for n in (512, 1024) for w in index_family_words(n, rng)]
    words += [[], [0], [0] * 7, [3] * 20, [0, 1, 0, 0, 1] * 60]
    words += [thue_morse(k) for k in range(8)] + [fibonacci_word(k) for k in range(11)]
    rng = random.Random(97)
    words += [[rng.randrange(s) for _ in range(rng.randint(0, 150))]
              for _ in range(100) for s in [rng.randint(1, 4)]]
    rng = random.Random(1)
    words += [[rng.randrange(3) for _ in range(rng.randint(1, 200))] for _ in range(80)]
    rng = random.Random(2)
    words += [[rng.randrange(2) for _ in range(rng.randint(1, 300))] for _ in range(60)]
    rng = random.Random(3)
    words += [[rng.randrange(s) for _ in range(n)]
              for _ in range(120) for n, s in [(rng.randint(1, 180), rng.choice((1, 2, 3, 5)))]]
    rng = random.Random(6)
    words += [[rng.randrange(s) for _ in range(rng.randint(0, 120))]
              for _ in range(100) for s in [rng.choice((1, 2, 3, 5))]]
    for x in words:
        tree = suffix_tree(x)
        shape = _tree_shape(tree)
        assert shape == oracles.suffix_tree_shape(x), x
        # the leaves in symbol order, read off the shape's sorted preorder
        assert [s for *_, s in shape if s >= 0] == oracles.suffix_array(x), x
        assert_tree_bookkeeping(tree)
        order, rank, lo, hi = tree.leaf_ranges()
        assert [order[r] for r in rank] == list(range(tree.n)), x
        for v in range(len(tree.parent)):
            # the walk's block of v holds exactly the leaves below v
            below = leaves_below(tree, v)
            assert hi[v] - lo[v] == len(below), (x, v)
            assert set(order[lo[v]:hi[v]]) == set(below), (x, v)
            # a leaf's range is its own rank, and the ranges of an internal
            # node's children tile its range
            if not tree.is_leaf(v):
                assert v == 0 or len(tree.children[v]) >= 2, (x, v)
                edge = lo[v]
                for a, b in sorted((lo[c], hi[c]) for c in tree.children[v].values()):
                    assert a == edge, (x, v)
                    edge = b
                assert edge == hi[v], (x, v)
                continue
            s = tree.suffix_label[v]
            assert (lo[v], hi[v]) == (rank[s], rank[s] + 1), (x, v)
            pieces, u = [], v  # a leaf's root path spells its suffix
            while u:
                pieces.append(_edge_word(tree, u))
                u = tree.parent[u]
            assert list(chain.from_iterable(reversed(pieces))) == tree.text[s:], (x, v)


def _assert_sub_table(x) -> None:
    """Both dif tables are the oracle's; Sub counts every factor, never
    falls, and gains at most n - k at position k."""
    sub, dif = sub_table(x)
    tree = suffix_tree(x)
    assert dif == dif_table_marking(tree) == dif_table_minleaf(tree) == oracles.dif_table(x), x
    assert len(sub) == tree.n and sub[-1] == len(all_factors(tree.text)), x
    assert all(a <= b for a, b in zip(sub, sub[1:])), x
    assert all(0 <= d <= tree.n - k for k, d in enumerate(dif)), x


@check("sub-table equals the factor-counting oracle (random)", "fast")
def _subtable_fast():
    rng = random.Random(61)
    for _ in range(120):
        n = rng.randint(1, 60)
        _assert_sub_table([rng.randrange(3) for _ in range(n)])


@check("factor count on the suffix tree equals the factor set "
       "(2000 random words over 1, 2, 3 and 5 letters, length <= 40)", "fast")
def _factor_count_fast():
    rng = random.Random(71)
    for _ in range(2000):
        sigma = rng.choice((1, 2, 3, 5))
        x = [rng.randrange(sigma) for _ in range(rng.randint(0, 40))]
        assert suffix_tree(x).factor_count() == len(all_factors(x)), x


@check("counting: subsequence DP vs enumeration (length <= 12)", "fast")
def _counting_fast():
    for w in _bin_words(12):
        assert count_subsequences(w) == len(all_subsequences(w))
    for w in chain.from_iterable(product(range(3), repeat=n) for n in range(9)):
        assert count_subsequences(w) == len(all_subsequences(w)), w
    for n in range(0, 13):
        best = max(count_subsequences(w) for w in _bin_words(n, n)) if n else 1
        assert best == max_subs(n)


@check("unbordered recurrences vs enumeration (length <= 14)", "fast")
def _unbordered_fast():
    u, v, t = unbordered_counts(14)
    cu = [0] * 15
    cv = [0] * 15
    ct_ = [0] * 15
    cu[0] = cv[0] = ct_[0] = 1
    for w in _bin_words(14):
        n = len(w)
        cu[n] += not oracles.is_bordered(w)
        cv[n] += not oracles.has_even_palindromic_prefix(w)
        ct_[n] += not oracles.has_odd_palindromic_prefix(w)
    assert u == cu and v == cv and t == ct_
    for n in range(0, 15):
        assert sum(unbordered_weighted(n, k) for k in range(n + 1)) == u[n]


@check("grasshopper square-free outputs (n <= 20, jump DP oracle)", "fast")
def _grasshopper_fast():
    for n in range(1, 21):
        w = grasshopper_squarefree_word(n)
        assert len(w) == n
        assert not oracles.grasshopper_square_exists(w)
        assert all((s % 2 == 1) == (i % 2 == 1) for i, s in enumerate(w))


@check("s-cover check vs coverage oracle (exhaustive small)", "fast")
def _scover_fast():
    for y in _bin_words(9, 2):
        for x in _bin_words(len(y) - 1):
            assert s_cover_check(x, y) == s_cover_check_naive(x, y)


def _assert_minsub(w, subs, ks):
    """min_sub(w, k) is the least length-k word among the subsequences."""
    for k in ks:
        assert tuple(min_sub(w, k)) == min(s for s in subs if len(s) == k)


@check("minsub equals exhaustive minimum (length <= 10)", "fast")
def _minsub_fast():
    for w in _bin_words(10):
        _assert_minsub(w, all_subsequences(w), range(1, len(w) + 1))


@check("lcs equals the table-DP oracle, positions and ties (random, length <= 40; "
       "long left runs, length <= 200)", "fast")
def _lcs_fast():
    rng = random.Random(83)
    pairs = []
    for _ in range(300):
        k = rng.randint(1, 5)
        pairs.append(([rng.randrange(k) for _ in range(rng.randint(0, 40))],
                      [rng.randrange(k) for _ in range(rng.randint(0, 40))]))
    # long runs of traceback left steps, which lcs takes in one jump: binary
    # against mostly a third symbol, Thue-Morse against Fibonacci, unary
    # against binary
    tm, fib = thue_morse(8), fibonacci_word(12)
    for n in (10, 50, 200):
        binary = [rng.randrange(2) for _ in range(n)]
        third = [2 if rng.random() < 0.9 else rng.randrange(2) for _ in range(n)]
        pairs += [(binary, third), (tm[:n], fib[:n]), ([0] * n, binary)]
    for u, v in pairs:
        assert lcs(u, v) == oracles.lcs_table(u, v)
        for x in (u, v):
            assert lcs(x, x[::-1]) == oracles.lcs_table(x, x[::-1])


def _assert_distinguishes(x, y) -> None:
    z = distinguishing_subsequence(x, y)
    assert len(z) <= (len(x) + 2) // 2
    assert is_subsequence(z, x) != is_subsequence(z, y)


def _distinguish_all_pairs(lengths) -> None:
    for n in lengths:
        for xm in range(1 << n):
            x = [(xm >> i) & 1 for i in range(n)]
            for ym in range(xm + 1, 1 << n):
                _assert_distinguishes(x, [(ym >> i) & 1 for i in range(n)])


@check("distinguisher bound and membership (exhaustive n <= 8)", "fast")
def _distinguish_fast():
    _distinguish_all_pairs(range(1, 9))
    for n in range(2, 13):
        x, y = hard_pair(n)
        assert len(x) == len(y) == n and x != y
        assert oracles.shortest_distinguisher_length(x, y) == (n + 2) // 2


@check("factor tests vs direct scans (length <= 11)", "fast")
def _factor_tests_fast():
    tm = bytes(thue_morse(16))
    fib = bytes(fibonacci_word(20))
    for w in _bin_words(11):
        b = bytes(w)
        assert tm_factor_test(w) == (tm.find(b) >= 0)
        assert fib_factor_test(w) == (fib.find(b) >= 0)


def _rle_cover_sweep(shortest: int, longest: int) -> None:
    for w in _bin_words(longest - 1, shortest - 1):  # each word that starts with 1
        w = [1] + w
        assert rle_shortest_cover(rle_encode(w)) == oracles.naive_shortest_cover(w)


@check("rle cover vs naive cover (exhaustive length <= 13)", "fast")
def _rle_cover_fast():
    _rle_cover_sweep(1, 13)


# ------------------------------------------------------------------- full


@check("s-cover check vs coverage oracle (all |y| <= 14, |x| <= 4)", "full")
def _scover_full():
    small_x = [list(x) for x in _bin_words(4)]
    for y in _bin_words(14, 2):
        half = y[:len(y) // 2]
        cands = small_x + ([half] if 0 < len(half) < len(y) else [])
        for x in cands:
            if len(x) >= len(y):
                continue
            assert s_cover_check(x, y) == s_cover_check_naive(x, y)


@check("s-cover check vs coverage oracle (structured y of length 1000 and 1024)", "full")
def _scover_structured_full():
    rng = random.Random(71)
    tm, fib = thue_morse(10), fibonacci_word(15)  # 1024 and 1597 symbols
    for n in (1000, 1024):
        for y in (tm[:n], fib[:n], [rng.randrange(3) for _ in range(n)], [0] * n):
            third = sorted(rng.sample(range(n), n // 3))
            for x in (y[:n // 2] + y[-1:], y[:-1], [y[i] for i in third]):
                assert s_cover_check(x, y) == s_cover_check_naive(x, y)


@check("anticover vs exhaustive subset search (all |x| <= 14)", "full")
def _anticover_full():
    for x in _bin_words(14, 2):
        got = two_anticover(x)
        want = oracles.anticover_exists_bruteforce(x)
        assert (got is not None) == want
        if got is not None:
            assert anticover_is_valid(x, got)


@check("minsub / counting vs enumeration (length <= 14)", "full")
def _minsub_full():
    rng = random.Random(67)
    for w in _bin_words(14, 11):  # every k to length 12, one seeded k beyond
        subs = all_subsequences(w)
        assert count_subsequences(w) == len(subs)
        ks = range(1, len(w) + 1) if len(w) <= 12 else [rng.randint(1, len(w))]
        _assert_minsub(w, subs, ks)


@check("LPS length vs exhaustive palindromic search (length <= 15)", "full")
def _lps_full():
    from .subseq import longest_palindromic_subsequence

    rng = random.Random(71)
    words = [list(w) for w in _bin_words(12, 10)]
    words += [[rng.randrange(2) for _ in range(n)]
              for n in (13, 14, 15) for _ in range(60)]
    for w in words:
        got = longest_palindromic_subsequence(w)
        assert got == got[::-1]
        assert is_subsequence(got, w)
        assert len(got) == oracles.palindromic_subseq_longest(w)


@check("distinguisher length bound (all pairs n <= 10, samples to 12)", "full")
def _distinguish_full():
    _distinguish_all_pairs(range(9, 11))
    rng = random.Random(73)
    for n in (11, 12):
        for _ in range(20_000):
            x = [rng.randrange(2) for _ in range(n)]
            y = [rng.randrange(2) for _ in range(n)]
            if x != y:
                _assert_distinguishes(x, y)


@check("factor tests vs direct scans (all lengths <= 14)", "full")
def _factor_tests_full():
    tm20 = bytes(thue_morse(20))
    length = 14
    tm_factors = {tm20[i:i + length] for i in range(len(tm20) - length + 1)}
    fib = bytes(fibonacci_word(20))
    for w in _bin_words(14, 12):
        b = bytes(w)
        in_tm = any(b in f for f in tm_factors)
        assert tm_factor_test(w) == in_tm
        assert fib_factor_test(w) == (fib.find(b) >= 0)


@check("free band DP vs recursive quadruples (3 letters, len <= 7)", "full")
def _freeband_full():
    import itertools

    words: list[tuple[int, ...]] = []
    for n in range(1, 8):
        words.extend(itertools.product(range(3), repeat=n))
    sigs = dict(zip(words, oracles.band_signatures(words)))
    rng = random.Random(79)
    by_sig: dict = {}
    for w, s in sigs.items():
        by_sig.setdefault(s, []).append(w)
    # same-class pairs agree, class representatives pairwise differ
    for group in by_sig.values():
        for a, b in zip(group, group[1:]):
            assert idempotent_equivalent(a, b)
    reps = [group[0] for group in by_sig.values()]
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not idempotent_equivalent(a, b)
    # random cross pairs agree with signatures
    for _ in range(30_000):
        a, b = rng.choice(words), rng.choice(words)
        assert idempotent_equivalent(a, b) == (sigs[a] == sigs[b])


@check("free band class counts saturate at 7 and 160", "full")
def _freeband_counts():
    import itertools

    for letters, want, max_len in ((2, 7, 6), (3, 160, 8)):
        words = [w for n in range(1, max_len + 1)
                 for w in itertools.product(range(letters), repeat=n)]
        assert len(set(oracles.band_signatures(words))) + 1 == want  # plus the empty word


@check("cartesian matching (10^3 words) and sub-table oracles (1872 words)", "full")
def _index_full():
    rng = random.Random(83)
    for _ in range(1000):
        m = rng.randint(1, 12)
        x = [rng.randrange(5) for _ in range(m)]
        y = [rng.randrange(5) for _ in range(rng.randint(m, 400))]
        assert ct_match(x, y) == ct_match_naive(x, y)
    words = [[rng.randrange(4) for _ in range(rng.randint(1, 80))] for _ in range(1000)]
    for seed, count, sigma, longest in ((4, 400, 3, 120), (5, 120, 4, 150), (6, 200, 3, 80)):
        rng = random.Random(seed)
        words += [[rng.randrange(sigma) for _ in range(rng.randint(1, longest))]
                  for _ in range(count)]
    rng = random.Random(7)  # unary and periodic words, then a letter count per symbol
    words += [[0] * 40, [0, 1] * 25] + [
        [rng.randrange(rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 90))] for _ in range(150)]
    for x in words:
        _assert_sub_table(x)


@check("rle cover vs naive cover (exhaustive length <= 18)", "full")
def _rle_cover_full():
    _rle_cover_sweep(14, 18)


@check("attractor suffix-array check vs rank-refinement oracle "
       "(Thue-Morse k = 8, Fibonacci k = 11; kernel sizes)", "full")
def _attractor_oracle_full():
    _assert_attractor_structured([8], [11])
    # the benchmark's kernel words: the constructed set and its middle dropped
    for family, k, w in [("thue_morse", 9, thue_morse(9)), ("thue_morse", 10, thue_morse(10)),
                         ("fibonacci", 13, fibonacci_word(13)),
                         ("fibonacci", 14, fibonacci_word(14))]:
        pos = sorted(attractor_construct(family, k))
        near = pos[:len(pos) // 2] + pos[len(pos) // 2 + 1:]
        assert is_attractor(w, pos) and oracles.attractor_refinement(w, pos), (family, k)
        assert not is_attractor(w, near) and not oracles.attractor_refinement(w, near), (family, k)


@check("wildcard index size bound, random words to n = 2000", "full")
def _wildcard_size_full():
    for seed, sizes in ((89, (50, 200, 800, 2000)), (10, (50, 120, 500, 1200, 2000))):
        rng = random.Random(seed)
        for n in sizes:
            w = [rng.randrange(2) for _ in range(n)]
            assert wildcard_index(w).node_count() <= 4 * n * math.log2(n), (seed, n)


@check("superpattern embeds all 8! permutations", "full")
def _superpattern_full():
    import itertools

    n = 8
    word = superpattern_word(n)
    assert len(word) == (n * n + n) // 2
    for pi in itertools.permutations(range(1, n + 1)):
        pos = embed_permutation(list(pi))
        sub = [word[p] for p in pos]
        for i in range(n):
            for j in range(i + 1, n):
                assert (pi[i] < pi[j]) == (sub[i] < sub[j])


@check("jump identity, exhaustive n <= 8", "full")
def _jumps_full():
    import itertools

    for n in range(1, 9):
        for pi in itertools.permutations(range(1, n + 1)):
            lst = list(pi)
            jp = jumps_total(lst, n)
            jq = jumps_total([v + 1 for v in lst], n)
            assert jp + jq == 2 * n + 1
            _, jumps = greedy_embedding(lst, n)
            assert all(j in (0, 1, 2) for j in jumps[1:])


@check("generator completeness n = 7 and universal shapes n <= 6", "full")
def _generators_full():
    for kind in KINDS:
        perms = run_generator(kind, 7)
        assert len(perms) == 5040 and len(set(perms)) == 5040
        assert perms[0] == tuple(range(1, 8)), kind
    for n in range(2, 7):
        w = universal_shape_word(n)
        assert len(w) == math.factorial(n) + n - 1, n
        assert len(set(w)) == len(w), n  # letters stay pairwise distinct
        assert is_universal_shape_word(w, n), n


class Result:
    """The outcome of one check."""

    __slots__ = ("name", "level", "seconds", "error")

    def __init__(self, name: str, level: str, seconds: float, error: str | None):
        self.name, self.level, self.seconds = name, level, seconds
        self.error = error  # "<Type>: <message>" if the check raised, else None

    def _asdict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


LEVELS = {"fast": ("fast",), "full": ("fast", "full")}


def results(level: str = "fast") -> Iterator[Result]:
    """Run the checks of ``level`` (full includes fast) in ``CHECKS`` order,
    yielding each check's record as soon as it finishes.  An unknown level
    raises ValueError here, before any check runs."""
    if level not in LEVELS:
        raise ValueError(f"level must be fast or full, got {level!r}")
    return (_result(name, lvl, fn) for name, lvl, fn in CHECKS if lvl in LEVELS[level])


def _result(name: str, level: str, fn: Callable[[], None]) -> Result:
    t0 = perf_counter()
    try:
        fn()
    except Exception as exc:  # one failing check must not end the run
        error = f"{type(exc).__name__}: {exc}"
    else:
        error = None
    return Result(name, level, perf_counter() - t0, error)


def report(r: Result, out) -> None:
    """Print one check's pass/FAIL line."""
    if r.error is None:
        print(f"pass {r.name} ({r.seconds:.1f}s)", file=out)
    else:
        print(f"FAIL {r.name}: {r.error}", file=out)
