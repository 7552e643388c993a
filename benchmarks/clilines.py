"""Seeded command lines for the cli-batch workload, each with its expected answer.

Every registry verb except ``selftest run`` has a generator here.  A generator
draws short arguments (words of at most 16 symbols) and returns the argv list
together with a check on the exit status and the decoded ``value``.  Expected
values come from small independent oracles where one is a few lines long, and
otherwise from calling the library function directly on the integer
arguments, so the check covers what the command layer adds: parsing,
dispatch and formatting.

About 5% of the lines are malformed.  Those must produce exactly one
``{ok: false}`` line and exit status 2.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Callable

from stringology import (avoidance, cartesian, codec, freeband, gf2, oracles,
                         patterns, permgen, regularities, rings, slp, subcount,
                         subseq, suffixtree, wildcard)
from stringology.words import HOLE

LETTERS = "abcdefghijklmnopqrstuvwxyz"
MALFORMED_SHARE = 0.05

Check = Callable[[int, object], bool]


def _norm(value):
    return json.loads(json.dumps(value, default=str))


def eq(rc: int, value) -> Check:
    want = _norm(value)
    return lambda got_rc, got: got_rc == rc and got == want


def yes_no(flag: bool) -> Check:
    return eq(0 if flag else 1, "yes" if flag else "no")


def lit(w, kind: str = "letters") -> str:
    """Word literal in one of the three input forms."""
    if kind == "letters":
        return "".join("?" if s == HOLE else LETTERS[s] for s in w)
    if kind == "digits":
        return "".join("?" if s == HOLE else str(s) for s in w)
    return ",".join("?" if s == HOLE else str(s) for s in w)


def out(w) -> str:
    """Word as the command line prints it when the input was a letter string."""
    return lit(w, "letters" if all(s == HOLE or 0 <= s < 26 for s in w) else "csv")


def word(rng, lo: int, hi: int, sigma: int) -> list[int]:
    return [rng.randrange(sigma) for _ in range(rng.randint(lo, hi))]


def bits(w) -> str:
    return "".join(map(str, w))


# ------------------------------------------------------------ small oracles


def tm_prefix(k: int) -> list[int]:
    return [bin(i).count("1") & 1 for i in range(1 << k)]


def fib_prefix(k: int) -> list[int]:
    a, b = [0], [0, 1]
    if k == 0:
        return a
    for _ in range(k - 1):
        a, b = b, b + a
    return b


def distinct_subsequences(w) -> int:
    """Classic last-occurrence recurrence, counting the empty word."""
    total, last = 1, {}
    for s in w:
        total, last[s] = 2 * total - last.get(s, 0), total
    return total


def lcs_len(u, v) -> int:
    prev = [0] * (len(v) + 1)
    for a in u:
        cur = [0]
        for j, b in enumerate(v):
            cur.append(prev[j] + 1 if a == b else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def is_subseq(x, y) -> bool:
    it = iter(y)
    return all(s in it for s in x)


def _contains(hay, needle) -> bool:
    m = len(needle)
    return any(hay[i:i + m] == needle for i in range(len(hay) - m + 1))


def attractor_brute(w, pos) -> bool:
    n, pos = len(w), set(pos)
    need = {tuple(w[i:j]) for i in range(n) for j in range(i + 1, n + 1)}
    hit = {tuple(w[i:j]) for i in range(n) for j in range(i + 1, n + 1)
           if any(i <= p < j for p in pos)}
    return need == hit


def huffman_cost_ref(p) -> float:
    import heapq
    heap = list(p)
    heapq.heapify(heap)
    cost = 0.0
    while len(heap) > 1:
        a, b = heapq.heappop(heap), heapq.heappop(heap)
        cost += a + b
        heapq.heappush(heap, a + b)
    return cost


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


# ------------------------------------------------------------ generators
# Each takes a random.Random and returns (argv, check).


def g_thue(rng):
    k = rng.randint(0, 7)
    return ["word", "thue-morse", str(k)], eq(0, out(tm_prefix(k)))


def g_fib(rng):
    k = rng.randint(0, 9)
    return ["word", "fibonacci", str(k)], eq(0, out(fib_prefix(k)))


def g_prefix_table(rng):
    w = word(rng, 1, 16, 2)
    z = [len(w)] + [next((j for j in range(len(w) - i) if w[j] != w[i + j]), len(w) - i)
                    for i in range(1, len(w))]
    return ["word", "prefix-table", lit(w)], eq(0, z)


def g_factors(rng):
    w = word(rng, 1, 12, 3)
    count = len({tuple(w[i:j]) for i in range(len(w)) for j in range(i + 1, len(w) + 1)})
    return ["word", "factors", lit(w)], eq(0, {"count": count})


def g_subsequences(rng):
    w = word(rng, 1, 12, 3)
    return ["word", "subsequences", lit(w)], eq(0, {"count": distinct_subsequences(w)})


def _runs(rng):
    runs, bit = [], 1
    for _ in range(rng.randint(1, 5)):
        runs.append((bit, rng.randint(1, 3)))
        bit ^= 1
    return runs


def _decode(runs):
    return [b for b, e in runs for _ in range(e)]


def _runs_lit(runs):
    return ",".join(f"{b}:{e}" for b, e in runs)


def g_rle_encode(rng):
    runs = _runs(rng)
    return ["rle", "encode", bits(_decode(runs))], eq(0, _runs_lit(runs))


def g_rle_decode(rng):
    runs = _runs(rng)
    return ["rle", "decode", _runs_lit(runs)], eq(0, bits(_decode(runs)))


def g_rle_cover(rng):
    runs = _runs(rng)
    return (["rle", "shortest-cover", _runs_lit(runs)],
            eq(0, oracles.naive_shortest_cover(_decode(runs))))


def g_rle_find(rng):
    text = _runs(rng) + _runs(rng)
    merged = []
    for b, e in text:
        if merged and merged[-1][0] == b:
            merged[-1] = (b, merged[-1][1] + e)
        else:
            merged.append((b, e))
    pat = _runs(rng)[:2]
    return (["rle", "find", _runs_lit(pat), _runs_lit(merged)],
            yes_no(_contains(_decode(merged), _decode(pat))))


def g_scover_check(rng):
    x = word(rng, 1, 4, 2)
    y = word(rng, len(x) + 1, 12, 2)
    return (["scover", "check", lit(x, "digits"), lit(y, "digits")],
            yes_no(subseq.s_cover_check_naive(x, y)))


def g_scover_tables(rng):
    x = word(rng, 1, 4, 2)
    y = word(rng, len(x) + 1, 12, 2)
    t = subseq.s_cover_tables(x, y)
    if t is None:
        return ["scover", "tables", lit(x), lit(y)], eq(1, "no-border-embedding")
    return ["scover", "tables", lit(x), lit(y)], eq(0, {
        "L": t.first, "R": t.last, "LEFT": t.left, "RIGHT": t.right, "P": t.p})


def g_scover_shortest(rng):
    y = word(rng, 2, 9, 2)
    return ["scover", "shortest", lit(y)], eq(0, out(subseq.shortest_s_cover_naive(y)))


def g_attr_check(rng):
    w = word(rng, 2, 10, 2)
    pos = sorted(rng.sample(range(len(w)), rng.randint(1, min(3, len(w)))))
    return (["attractor", "check", lit(w), ",".join(map(str, pos))],
            yes_no(attractor_brute(w, pos)))


def g_attr_build(rng):
    family, k = (("thue_morse", rng.randint(4, 8)) if rng.random() < 0.5
                 else ("fibonacci", rng.randint(2, 9)))
    return (["attractor", "build", family, str(k)],
            eq(0, sorted(regularities.attractor_construct(family, k))))


def g_period(rng):
    w = word(rng, 2, 12, 2)
    if rng.random() < 0.5:
        w[rng.randrange(len(w))] = HOLE
    p = rng.randint(1, len(w))
    ok = all(a == b or HOLE in (a, b) for a, b in zip(w, w[p:]))
    return ["period", "local", lit(w), str(p)], yes_no(ok)


def g_sat(rng):
    nv = rng.randint(1, 4)
    clauses = [tuple(rng.choice((-1, 1)) * rng.randint(1, nv) for _ in range(2))
               for _ in range(rng.randint(1, 6))]
    maxvar = max(abs(v) for c in clauses for v in c)

    def sat(assign):
        return all(any((assign[abs(v) - 1] == "1") == (v > 0) for v in c) for c in clauses)

    satisfiable = any(sat(a) for a in ("".join(t) for t in itertools.product("01", repeat=maxvar)))

    def check(rc, value):
        if not satisfiable:
            return rc == 1 and value == "UNSAT"
        return rc == 0 and isinstance(value, str) and len(value) == maxvar and sat(value)
    text = " ".join(f"{a},{b}" for a, b in clauses)
    # "--" keeps argparse from reading a leading negative literal as an option
    return ["sat", "solve"] + ["--"] * text.startswith("-") + [text], check


def g_anticover(rng):
    w = word(rng, 2, 9, 3)
    exists = oracles.anticover_exists_bruteforce(w)

    def check(rc, value):
        if not exists:
            return rc == 1 and value == "none"
        return rc == 0 and regularities.anticover_is_valid(w, [tuple(p) for p in value])
    return ["anticover", "find", lit(w)], check


def g_distinguish(rng):
    n = rng.randint(2, 12)
    x = word(rng, n, n, 2)
    y = list(x)
    while y == x:
        y = word(rng, n, n, 2)

    def check(rc, value):
        if rc != 0 or not isinstance(value, str) or not set(value) <= set("01"):
            return False
        z = [int(c) for c in value]
        return is_subseq(z, x) != is_subseq(z, y) and len(z) <= (n + 2) // 2
    return ["distinguish", "pair", lit(x, "digits"), lit(y, "digits")], check


def g_hard_pair(rng):
    n = rng.randint(2, 12)
    x, y = [0, 1] * (n // 2) + [0] * (n % 2), [1, 0] * (n // 2) + [0] * (n % 2)
    return ["distinguish", "hard-pair", str(n)], eq(0, [out(x), out(y)])


def g_minsub(rng):
    w = word(rng, 1, 10, 4)
    k = rng.randint(1, len(w))
    return (["minsub", "run", lit(w), str(k)],
            eq(0, out(oracles.min_subsequence_of_length(w, k))))


def g_lcs(rng):
    u, v = word(rng, 1, 12, 3), word(rng, 1, 12, 3)
    want = lcs_len(u, v)

    def check(rc, value):
        a, b = value["positions_u"], value["positions_v"]
        return (rc == 0 and value["length"] == len(a) == len(b) == want
                and all(u[i] == v[j] for i, j in zip(a, b))
                and a == sorted(set(a)) and b == sorted(set(b))
                and value["word"] == out([u[i] for i in a]))
    return ["lcs", "run", lit(u), lit(v)], check


def g_lps(rng):
    w = word(rng, 1, 14, 3)
    want = lcs_len(w, w[::-1])

    def check(rc, value):
        return (rc == 0 and isinstance(value, str) and len(value) == want
                and value == value[::-1] and is_subseq(value, lit(w)))
    return ["lps", "run", lit(w)], check


def g_subs_count(rng):
    w = word(rng, 1, 16, 3)
    return ["subs", "count", lit(w)], eq(0, distinct_subsequences(w))


def g_subs_max(rng):
    n = rng.randint(0, 8)
    best = max(distinct_subsequences(w) for w in itertools.product((0, 1), repeat=n))
    return ["subs", "max", str(n)], eq(0, best)


def g_ham_build(rng):
    r = rng.randint(3, 5)
    code = codec.hamming_build(r)
    return ["hamming", "build", str(r)], eq(0, {
        "rows": [bits(row) for row in codec.hamming_matrix(code)], "n": 2 ** r - 1, "k": 2 ** r - 1 - r})


def g_ham_encode(rng):
    code = codec.hamming_build(3)
    msg = word(rng, 4, 4, 2)
    return ["hamming", "encode", bits(msg), "--r", "3"], eq(0, bits(codec.hamming_encode(code, msg)))


def g_ham_correct(rng):
    code = codec.hamming_build(3)
    sent = codec.hamming_encode(code, word(rng, 4, 4, 2))
    got = list(sent)
    if rng.random() < 0.7:
        got[rng.randrange(len(got))] ^= 1
    return ["hamming", "correct", bits(got)], lambda rc, value: rc == 0 and value == bits(sent)


def _weights(rng):
    k = rng.randint(2, 6)
    cuts = sorted(rng.sample(range(1, 16), k - 1))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [16])]
    return [c / 16 for c in counts]


def g_huffman(rng):
    p = _weights(rng)
    want = huffman_cost_ref(p)

    def check(rc, value):
        d = value["depths"]
        return (rc == 0 and close(value["cost"], want) and len(d) == len(p)
                and close(sum(a * b for a, b in zip(p, d)), want)
                and sum(2.0 ** -x for x in d) <= 1 + 1e-12)
    return ["huffman", "cost", ",".join(map(str, p))], check


def g_entropy(rng):
    p = _weights(rng)
    want = -sum(x * math.log2(x) for x in p)
    return (["huffman", "entropy", ",".join(map(str, p))],
            lambda rc, value: rc == 0 and close(value, want))


def g_shrink(rng):
    w = word(rng, 1, 14, 3)
    return ["recompress", "shrink", lit(w)], eq(0, out([k for k, _ in itertools.groupby(w)]))


def _no_unary_runs(rng, lo, hi):
    w = [rng.randrange(4)]
    for _ in range(rng.randint(lo, hi) - 1):
        w.append(rng.choice([s for s in range(4) if s != w[-1]]))
    return w


def g_partition(rng):
    w = _no_unary_runs(rng, 2, 12)
    part = codec.pairing_partition(w)
    return ["recompress", "partition", lit(w)], eq(0, {
        "left": out(sorted(part.left)), "right": out(sorted(part.right))})


def g_compress(rng):
    w = _no_unary_runs(rng, 2, 12)
    alphabet = sorted(set(w) | {rng.randrange(4)})
    if len(alphabet) < 2:
        alphabet = sorted(set(alphabet) | {(alphabet[0] + 1) % 4})
    rng.shuffle(alphabet)
    cut = rng.randint(1, len(alphabet) - 1)
    left, right = sorted(alphabet[:cut]), sorted(alphabet[cut:])
    got = codec.compress_pairs(w, codec.PairPartition(frozenset(left), frozenset(right)))
    return ["recompress", "compress", lit(w), lit(left), lit(right)], eq(0, out(got))


def g_tm_test(rng):
    big = tm_prefix(10)
    if rng.random() < 0.5:
        m = rng.randint(1, 12)
        i = rng.randrange(len(big) - m)
        w = big[i:i + m]
    else:
        w = word(rng, 1, 12, 2)
    return ["morphic", "tm-test", lit(w, "digits")], yes_no(_contains(big, w))


def g_fib_test(rng):
    big = fib_prefix(15)
    if rng.random() < 0.5:
        m = rng.randint(1, 12)
        i = rng.randrange(len(big) - m)
        w = big[i:i + m]
    else:
        w = word(rng, 1, 12, 2)
    return ["morphic", "fib-test", lit(w, "digits")], yes_no(_contains(big, w))


def g_gs_square(rng):
    n = rng.randint(1, 20)
    return (["grasshopper", "square-free", str(n)],
            eq(0, ",".join(map(str, avoidance.grasshopper_squarefree_word(n)))))


def g_gs_cube(rng):
    n = rng.randint(1, 20)
    return ["grasshopper", "cube-free", str(n)], eq(0, out(avoidance.grasshopper_cubefree_word(n)))


def g_recover(rng):
    x = word(rng, 2, 8, 3)
    half = word(rng, 1, 5, 6)
    z = half + half
    return (["grasshopper", "recover", lit(x), ",".join(map(str, z))],
            eq(0, out(avoidance.recover_square(x, z))))


def g_unbordered(rng):
    n = rng.randint(0, 12)
    u, v, t = avoidance.unbordered_counts(n)
    return ["unbordered", "counts", str(n)], eq(0, {"u": u, "v": v, "t": t})


def g_weighted(rng):
    n = rng.randint(0, 12)
    k = rng.randint(0, n)
    return (["unbordered", "weighted", str(n), str(k)],
            eq(0, avoidance.unbordered_weighted(n, k)))


def g_palprefix(rng):
    n = rng.randint(0, 6)
    want = sum(not oracles.has_any_palindromic_prefix(w)
               for w in itertools.product(range(3), repeat=n))
    return ["unbordered", "palprefix3", str(n)], eq(0, want)


def _lists(rng):
    return [sorted(rng.sample(range(8), 5)) for _ in range(rng.randint(1, 3))]


def g_listsq_run(rng):
    lists = _lists(rng)
    control = [rng.randint(1, 5) for _ in range(8 * len(lists))]
    trace = avoidance.list_squarefree(lists, control)
    ok = len(trace.word) == len(lists)
    return (["listsq", "run", ",".join(lit(li) for li in lists), bits(control)],
            eq(0 if ok else 1, out(list(trace.word))))


def g_listsq_random(rng):
    lists = _lists(rng)
    seed = rng.randint(0, 999)
    w, _ = avoidance.list_squarefree_random(lists, seed)
    return (["listsq", "random", ",".join(lit(li) for li in lists), "--seed", str(seed)],
            eq(0, out(w)))


def g_psi(rng):
    w = word(rng, 1, 10, 3)
    q = freeband.psi(w)
    return ["freeband", "psi", lit(w)], eq(0, {
        "prefix": out(q.prefix), "first_new": out([q.first_new]),
        "last_new": out([q.last_new]), "suffix": out(q.suffix)})


def g_equiv(rng):
    x = word(rng, 1, 8, 2)
    y = x[::-1] if rng.random() < 0.3 else word(rng, 1, 8, 2)
    return (["freeband", "equiv", lit(x), lit(y)],
            yes_no(freeband.idempotent_equivalent(x, y)))


def g_gen_seq(rng):
    kind = rng.choice(permgen.KINDS)
    n = rng.randint(2, 6)
    g = permgen.gen_sequence(kind, n)
    value = {"size": slp.slp_size(g), "length": slp.slp_length(g)}
    argv = ["gen", "seq", kind, str(n)]
    if rng.random() < 0.3:
        argv.append("--strict")
        value["strict_size"] = slp.slp_size(slp.strict_binary(g))
    return argv, eq(0, value)


def g_gen_run(rng):
    kind = rng.choice(permgen.KINDS)
    n = rng.randint(2, 4)
    perms = permgen.run_generator(kind, n)

    def check(rc, value):
        return (rc == 0 and value == [",".join(map(str, p)) if max(p) > 9 else "".join(map(str, p))
                                      for p in perms]
                and len(set(value)) == math.factorial(n))
    return ["gen", "run", kind, str(n)], check


def g_rho(rng):
    limit = rng.randint(1, 30)
    return ["gen", "rho", str(limit)], eq(0, list(permgen.rho_stream(limit)))


def g_super_word(rng):
    n = rng.randint(1, 6)
    return (["superpattern", "word", str(n)],
            eq(0, ",".join(map(str, patterns.superpattern_word(n)))))


def g_embed(rng):
    n = rng.randint(1, 6)
    pi = rng.sample(range(1, n + 1), n)
    return ["superpattern", "embed", ",".join(map(str, pi))], eq(0, patterns.embed_permutation(pi))


def g_shape(rng):
    u = rng.sample(range(20), rng.randint(1, 8))
    ranks = [sorted(u).index(v) + 1 for v in u]
    return ["shape", "of", ",".join(map(str, u))], eq(0, ranks)


def g_universal(rng):
    n = rng.randint(2, 4)
    return (["shape", "universal", str(n)],
            eq(0, ",".join(map(str, patterns.universal_shape_word(n)))))


def g_ring(rng):
    k = rng.randint(1, 4)
    n = rng.randint(k, 2 ** k)
    return ["ring", "word", str(n), str(k)], eq(0, bits(rings.ring_word(n, k)))


def g_ring_check(rng):
    k = rng.randint(1, 4)
    w = word(rng, k, 12, 2)
    doubled = w * 3
    ok = len({tuple(doubled[i:i + k]) for i in range(len(w))}) == len(w)
    return ["ring", "check", lit(w, "digits"), str(k)], yes_no(ok)


def _taps(rng, lead=False):
    while True:
        t = word(rng, 2, 6, 2)
        if lead:
            t[0] = 1
        if any(t):
            return t


def g_lfsr(rng):
    t = _taps(rng)
    return ["lfsr", "stream", bits(t)], eq(0, bits(gf2.lfsr(gf2.LfsrSpec(tuple(t)))))


def g_lfsr_gen(rng):
    t = _taps(rng)
    words = gf2.lfsr_gen(gf2.LfsrSpec(tuple(t)))
    argv = ["lfsr", "gen", bits(t)]
    if rng.random() < 0.5:
        limit = rng.randint(1, 8)
        argv += ["--limit", str(limit)]
        words = words[:limit]
    return argv, eq(0, [bits(w) for w in words])


def g_lfsr_nth(rng):
    t = _taps(rng, lead=True)
    m = rng.randint(1, 2 ** len(t) - 1)
    method = rng.choice(("matrix", "poly"))
    return (["lfsr", "nth", bits(t), str(m), "--method", method],
            eq(0, bits(gf2.nth_gen_word(gf2.LfsrSpec(tuple(t)), m, method))))


def _poly(rng):
    exps = sorted({0, rng.randint(2, 8)} | set(rng.sample(range(1, 8), rng.randint(0, 3))),
                  reverse=True)
    return exps, "+".join("1" if e == 0 else "x" if e == 1 else f"x{e}" for e in exps)


def g_primitive(rng):
    exps, text = _poly(rng)
    ok = gf2.is_primitive(gf2.Gf2Poly.from_exponents(exps))
    return ["lfsr", "primitive", text], yes_no(ok)


PRIMITIVE = ([2, 1, 0], [3, 1, 0], [3, 2, 0], [4, 1, 0], [4, 3, 0], [5, 2, 0], [5, 3, 0])


def g_two_cycles(rng):
    exps = rng.choice(PRIMITIVE)
    w, u = gf2.debruijn_two_cycles(gf2.Gf2Poly.from_exponents(exps))
    return ["lfsr", "two-cycles", ",".join(map(str, exps))], eq(0, {"w": bits(w), "u": bits(u)})


def g_suffix_tree(rng):
    w = word(rng, 1, 14, 3)
    t = suffixtree.suffix_tree(w)
    internal = sorted(t.depth[v] for v in range(1, len(t.parent)) if not t.is_leaf(v))

    def check(rc, value):
        return rc == 0 and value == {"nodes": len(t.parent), "leaves": len(w) + 1,
                                     "internal_depths": internal}
    return ["suffix", "tree", lit(w)], check


def g_subtable(rng):
    w = word(rng, 1, 14, 3)
    text = w + [max(w) + 1]
    total = len({tuple(text[i:j]) for i in range(len(text)) for j in range(i + 1, len(text) + 1)})
    sub, dif = subcount.sub_table(w)

    def check(rc, value):
        return rc == 0 and value == {"sub": sub, "dif": dif} and value["sub"][-1] == total
    return ["suffix", "subtable", lit(w)], check


def g_wc_build(rng):
    w = word(rng, 1, 14, 3)
    return ["wildcard", "build", lit(w)], eq(0, {"nodes": wildcard.wildcard_index(w).node_count()})


def g_wc_search(rng):
    w = word(rng, 1, 14, 3)
    p = word(rng, 1, 5, 3)
    if rng.random() < 0.7:
        p[rng.randrange(len(p))] = HOLE
    return ["wildcard", "search", lit(w), lit(p)], yes_no(oracles.approx_occurs(p, w))


def _csv_word(rng):
    return word(rng, 1, 10, 10)


def g_ct_tree(rng):
    w = _csv_word(rng)
    t = cartesian.cartesian_tree(w)
    return ["cartesian", "tree", lit(w, "csv")], eq(0, {"root": t.root, "left": t.left, "right": t.right})


def g_pd(rng):
    w = _csv_word(rng)
    pd = [next((i - j for j in range(i - 1, -1, -1) if w[j] <= w[i]), 0) for i in range(len(w))]
    return ["cartesian", "pd", lit(w, "csv")], eq(0, pd)


def g_pd_window(rng):
    w = _csv_word(rng)
    i = rng.randrange(len(w))
    j = rng.randint(i, len(w) - 1)
    sub = w[i:j + 1]
    pd = [next((a - b for b in range(a - 1, -1, -1) if sub[b] <= sub[a]), 0) for a in range(len(sub))]
    return ["cartesian", "pd-window", lit(w, "csv"), str(i), str(j)], eq(0, pd)


def g_ct_border(rng):
    w = _csv_word(rng)
    return ["cartesian", "border", lit(w, "csv")], eq(0, cartesian.ct_border(w))


def g_ct_match(rng):
    x = word(rng, 1, 4, 10)
    y = word(rng, 4, 12, 10)
    found = cartesian.ct_match_naive(x, y)
    return ["cartesian", "match", lit(x, "csv"), lit(y, "csv")], eq(0 if found else 1, found)


WELL_FORMED = [
    g_thue, g_fib, g_prefix_table, g_factors, g_subsequences,
    g_rle_encode, g_rle_decode, g_rle_cover, g_rle_find,
    g_scover_check, g_scover_tables, g_scover_shortest,
    g_attr_check, g_attr_build, g_period, g_sat, g_anticover,
    g_distinguish, g_hard_pair, g_minsub, g_lcs, g_lps, g_subs_count, g_subs_max,
    g_ham_build, g_ham_encode, g_ham_correct, g_huffman, g_entropy,
    g_shrink, g_partition, g_compress, g_tm_test, g_fib_test,
    g_gs_square, g_gs_cube, g_recover, g_unbordered, g_weighted, g_palprefix,
    g_listsq_run, g_listsq_random, g_psi, g_equiv,
    g_gen_seq, g_gen_run, g_rho, g_super_word, g_embed, g_shape, g_universal,
    g_ring, g_ring_check, g_lfsr, g_lfsr_gen, g_lfsr_nth, g_primitive, g_two_cycles,
    g_suffix_tree, g_subtable, g_wc_build, g_wc_search,
    g_ct_tree, g_pd, g_pd_window, g_ct_border, g_ct_match,
]

# Malformed lines: bad word literals, wrong argument counts, unknown verbs and
# out-of-domain input.  ``distinguish pair 02 10`` (not binary) is left out:
# it escapes ``main`` as StopIteration today, and no operation of a workload
# may fail.
MALFORMED = [
    ["subs", "count", "a-b"],
    ["lcs", "run", "AB", "ab"],
    ["word", "prefix-table", "ab c"],
    ["scover", "check", "010"],
    ["lps", "run", "abc", "abc"],
    ["word", "thue-morse"],
    ["word", "nosuch", "3"],
    ["frobnicate", "run", "ab"],
    ["rle", "encode", "0110"],
    ["minsub", "run", "abc", "7"],
    ["hamming", "encode", "101"],
    ["attractor", "check", "abab", "9"],
    ["word", "thue-morse", "99"],
]


def malformed_check(rc, value) -> bool:
    return rc == 2


def make_lines(rng, count: int) -> list[tuple[list[str], Check, bool]]:
    """A fixed list of ``count`` lines: (argv, check, well_formed).

    The first pass over the registry guarantees every verb appears once."""
    lines = []
    for i in range(count):
        if i >= len(WELL_FORMED) and rng.random() < MALFORMED_SHARE:
            lines.append((list(rng.choice(MALFORMED)), malformed_check, False))
            continue
        gen = WELL_FORMED[i] if i < len(WELL_FORMED) else rng.choice(WELL_FORMED)
        argv, check = gen(rng)
        lines.append((argv, check, True))
    rng.shuffle(lines)
    return lines
