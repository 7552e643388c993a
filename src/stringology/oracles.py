"""Brute-force reference routes used to cross-check the fast paths.

This is the one home of the reference routes: each favours obviousness over
speed, and the module imports only ``words``.  Certificate checkers, which
verify a result rather than compute one, stay beside their route.  Six
routes still sit beside their production code because the benchmark's line
generator uses them there: ``subseq.s_cover_positions_naive``,
``s_cover_check_naive`` and ``shortest_s_cover_naive``, and
``cartesian.cartesian_tree_recursive``, ``trees_equal`` and
``ct_match_naive``.
"""

from __future__ import annotations

# TYPE_CHECKING (False) is imported, not bound here: no name of this module
# may be one that a production module defines
from .words import TYPE_CHECKING, SizeLimitError, all_subsequences, approx_eq

if TYPE_CHECKING:
    from collections.abc import Hashable, Iterable, Sequence


def naive_shortest_cover(x: Sequence[int]) -> int:
    """Shortest prefix of x whose occurrences tile x; |x| when none do."""
    n = len(x)
    t = tuple(x)
    for length in range(1, n):
        pref = t[:length]
        covered = 0  # positions < covered are covered
        i = 0
        ok = True
        while i + length <= n:
            if t[i:i + length] == pref:
                if i > covered:
                    ok = False
                    break
                covered = i + length
            i += 1
        if ok and covered == n:
            return length
    return n


def anticover_exists_bruteforce(x: Sequence[int]) -> bool:
    """Exhaustive search over selections of length-2 factor occurrences,
    memoized on (position, used factor words, coverage overhang delta)."""
    n = len(x)
    if n < 2:
        return False
    words = sorted({(x[i], x[i + 1]) for i in range(n - 1)})
    widx = {w: i for i, w in enumerate(words)}

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def feasible(p: int, mask: int, delta: int) -> bool:
        # delta = (first uncovered position) - p, in {0, 1, 2}
        if p == n - 1:
            return delta >= 1
        out = False
        w = widx[(x[p], x[p + 1])]
        if not (mask >> w) & 1:
            out = feasible(p + 1, mask | (1 << w), 1)
        if not out and delta >= 1:
            out = feasible(p + 1, mask, delta - 1)
        return out

    return feasible(0, 0, 0)


def hole_word_local_periods(x: Sequence[int]) -> set[int]:
    return {
        p
        for p in range(1, len(x) + 1)
        if all(approx_eq(x[i], x[i + p]) for i in range(len(x) - p))
    }


def min_subsequence_of_length(x: Sequence[int], k: int) -> tuple[int, ...]:
    from itertools import combinations

    return min(tuple(x[i] for i in idx) for idx in combinations(range(len(x)), k))


def palindromic_subseq_longest(x: Sequence[int]) -> int:
    best = 0
    for s in all_subsequences(x):
        if s == s[::-1]:
            best = max(best, len(s))
    return best


def lcs_table(u: Sequence[int], v: Sequence[int]) -> tuple[list[int], list[int]]:
    """Longest common subsequence by the full table DP; returns aligned
    position lists.  ``subseq.lcs`` must return exactly these, ties included."""
    n, m = len(u), len(v)
    if n > 4000 or m > 4000:
        raise SizeLimitError("lcs bounded at 4000")
    prev = [0] * (m + 1)
    table = [prev]
    for i in range(1, n + 1):
        cur = [0] * (m + 1)
        ui = u[i - 1]
        for j in range(1, m + 1):
            if ui == v[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        table.append(cur)
        prev = cur
    alpha: list[int] = []
    beta: list[int] = []
    i, j = n, m
    while i > 0 and j > 0:
        if u[i - 1] == v[j - 1] and table[i][j] == table[i - 1][j - 1] + 1:
            alpha.append(i - 1)
            beta.append(j - 1)
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return alpha[::-1], beta[::-1]


def _with_sentinel(word: Sequence[int]) -> tuple[int, ...]:
    """word + sentinel (max + 1, or 0 for the empty word), as the suffix tree
    appends it."""
    return tuple(word) + ((max(word) + 1) if word else 0,)


def suffix_tree_shape(word: Sequence[int]) -> list[tuple]:
    """The compacted suffix tree of word + sentinel in preorder, children in
    symbol order: (parent's preorder index, edge word, suffix label or -1)
    per node, the root first as (-1, (), -1).  The suffixes below a node are
    grouped on their next symbol; an edge runs on while its group agrees, and
    a group of one suffix is a leaf.  The nodes wait on an explicit stack and
    the shape is flat, so neither building nor comparing it recurses once
    per tree level."""
    text = _with_sentinel(word)
    # (parent's index, starts, top, depth): every suffix in starts agrees on
    # its first depth symbols, and the edge into the node starts top symbols in
    stack: list[tuple[int, list[int], int, int]] = []

    def push_children(index: int, starts: list[int], depth: int) -> None:
        groups: dict[int, list[int]] = {}
        for s in starts:
            groups.setdefault(text[s + depth], []).append(s)
        for sym in sorted(groups, reverse=True):  # popped in symbol order
            stack.append((index, groups[sym], depth, depth + 1))

    shape = [(-1, (), -1)]
    push_children(0, list(range(len(text))), 0)
    while stack:
        parent, starts, top, depth = stack.pop()
        s0 = starts[0]
        if len(starts) == 1:
            shape.append((parent, text[s0 + top:], s0))
            continue
        while len({text[s + depth] for s in starts}) == 1:
            depth += 1
        shape.append((parent, text[s0 + top:s0 + depth], -1))
        push_children(len(shape) - 1, starts, depth)
    return shape


def suffix_array(word: Sequence[int]) -> list[int]:
    """The suffix starts of word + sentinel in sorted order, the sentinel
    the largest symbol."""
    text = _with_sentinel(word)
    return sorted(range(len(text)), key=lambda i: text[i:])


def dif_table(word: Sequence[int]) -> list[int]:
    """For each position k of word + sentinel, the number of distinct
    non-empty factors whose first occurrence starts at k."""
    text = _with_sentinel(word)
    seen: set[tuple[int, ...]] = set()
    dif = []
    for k in range(len(text)):
        fresh = {text[k:j] for j in range(k + 1, len(text) + 1)} - seen
        seen |= fresh
        dif.append(len(fresh))
    return dif


def attractor_refinement(x: Sequence[int], positions: Iterable[int]) -> bool:
    """True iff every distinct factor has an occurrence crossing one of the
    positions.  Quadratic distinct-factor scan with rank refinement."""
    n = len(x)
    pos = sorted(set(positions))
    if pos and (pos[0] < 0 or pos[-1] >= n):
        raise ValueError("attractor position out of range")
    if n == 0:
        return True
    if not pos:
        return False
    # next attractor position at or after i
    nxt = [n] * (n + 1)
    it = len(pos) - 1
    for i in range(n - 1, -1, -1):
        nxt[i] = nxt[i + 1]
        if it >= 0 and pos[it] == i:
            nxt[i] = i
            it -= 1
    # refine factor ranks length by length; a factor class is captured when
    # any of its occurrences [i, i+length-1] contains an attractor position
    rank = list(x)
    for length in range(1, n + 1):
        m = n - length + 1
        groups: dict[tuple, int] = {}
        newrank = [0] * m
        captured: dict[int, bool] = {}
        for i in range(m):
            key = (rank[i], x[i + length - 1]) if length > 1 else (x[i],)
            g = groups.setdefault(key, len(groups))
            newrank[i] = g
            if nxt[i] <= i + length - 1:
                captured[g] = True
        if len(captured) < len(groups):
            return False
        rank = newrank
    return True


def grasshopper_square_exists(y: Sequence[int]) -> bool:
    """Reachability over simultaneous walks of the two square halves."""
    n = len(y)
    for a in range(n):
        for b in (a + 1, a + 2):
            if b >= n:
                continue
            # pairs (i, j): i walks the first half ending at a, j the second
            # half starting at b; labels must agree step by step
            frontier = {(i, b) for i in range(a + 1) if y[i] == y[b]}
            seen = set(frontier)
            while frontier:
                if any(i == a for i, _ in frontier):
                    return True
                nxt = set()
                for i, j in frontier:
                    if i >= a:
                        continue
                    for di in (1, 2):
                        for dj in (1, 2):
                            ii, jj = i + di, j + dj
                            if ii <= a and jj < n and y[ii] == y[jj]:
                                if (ii, jj) not in seen:
                                    seen.add((ii, jj))
                                    nxt.add((ii, jj))
                frontier = nxt
    return False


def grasshopper_cube_exists(y: Sequence[int]) -> bool:
    """Depth-first enumeration of grasshopper paths checking for w w w."""
    n = len(y)

    def dfs(path: list[int]) -> bool:
        L = len(path)
        if L and L % 3 == 0:
            m = L // 3
            w = [y[p] for p in path]
            if w[:m] == w[m:2 * m] == w[2 * m:]:
                return True
        last = path[-1]
        for d in (1, 2):
            nxt = last + d
            if nxt < n:
                path.append(nxt)
                if dfs(path):
                    return True
                path.pop()
        return False

    return any(dfs([s]) for s in range(n))


def is_bordered(w: Sequence[int]) -> bool:
    t = tuple(w)
    return any(t[:k] == t[len(t) - k:] for k in range(1, len(t)))


def has_even_palindromic_prefix(w: Sequence[int]) -> bool:
    t = tuple(w)
    return any(
        t[:k] == t[:k][::-1] for k in range(2, len(t) + 1, 2)
    )


def has_odd_palindromic_prefix(w: Sequence[int]) -> bool:
    t = tuple(w)
    return any(
        t[:k] == t[:k][::-1] for k in range(3, len(t) + 1, 2)
    )


def has_any_palindromic_prefix(w: Sequence[int]) -> bool:
    t = tuple(w)
    return any(t[:k] == t[:k][::-1] for k in range(2, len(t) + 1))


def approx_occurs(pattern: Sequence[int], text: Sequence[int]) -> bool:
    m, n = len(pattern), len(text)
    for i in range(n - m + 1):
        if all(approx_eq(pattern[j], text[i + j]) for j in range(m)):
            return True
    return False


def brute_force_sat(f) -> list[bool] | None:
    """Truth-table oracle for a ``twosat.TwoSatFormula``; exponential, for
    cross-checking only."""
    for mask in range(1 << f.num_vars):
        vals = [(mask >> i) & 1 == 1 for i in range(f.num_vars)]
        if all(
            (vals[v1] == p1) or (vals[v2] == p2)
            for ((v1, p1), (v2, p2)) in f.clauses
        ):
            return vals
    return None


def shortest_distinguisher_length(x: Sequence[int], y: Sequence[int],
                                  alphabet: Sequence[int] = (0, 1)) -> int:
    """BFS over the product of subsequence automata; exact oracle."""
    def next_table(w):
        n = len(w)
        nxt = {c: [n] * (n + 1) for c in alphabet}
        for i in range(n - 1, -1, -1):
            for c in alphabet:
                nxt[c][i] = nxt[c][i + 1]
            nxt[w[i]][i] = i
        return nxt

    nx_, ny_ = next_table(x), next_table(y)
    dead_x, dead_y = len(x), len(y)
    start = (0, 0)
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt_frontier = []
        for (i, j) in frontier:
            for c in alphabet:
                ii = nx_[c][i] + 1 if nx_[c][i] < dead_x else None
                jj = ny_[c][j] + 1 if ny_[c][j] < dead_y else None
                if (ii is None) != (jj is None):
                    return depth
                if ii is None:
                    continue
                st = (ii, jj)
                if st not in seen:
                    seen.add(st)
                    nxt_frontier.append(st)
        frontier = nxt_frontier
    raise ValueError("words are equivalent as subsequence sets")


def _quadruple(u: tuple[int, ...]) -> tuple[tuple[int, ...], int, int, tuple[int, ...]]:
    """(p, a, b, q): pa is the shortest prefix and bq the shortest suffix of u
    using every letter of u."""
    full = set(u)
    i = next(i for i in range(1, len(u) + 1) if set(u[:i]) == full)
    j = next(j for j in range(len(u) - 1, -1, -1) if set(u[j:]) == full)
    return u[:i - 1], u[i - 1], u[j], u[j + 1:]


def band_signature(x: Sequence[int]) -> Hashable:
    """Canonical class invariant by recursive quadruple decomposition."""
    memo: dict[tuple[int, ...], Hashable] = {}

    def sig(u: tuple[int, ...]) -> Hashable:
        got = memo.get(u)
        if got is not None:
            return got
        if len(set(u)) == 1:
            memo[u] = u[0]
            return u[0]
        p, a, b, q = _quadruple(u)
        r = (sig(p), a, b, sig(q))
        memo[u] = r
        return r

    if not x:
        return ()
    return sig(tuple(x))


def rewrite_closure_classes(alphabet: int, cap: int) -> dict[tuple[int, ...], int]:
    """Connected components of the square-rewriting graph over all non-empty
    words up to length cap.

    Every duplication edge is a square deletion seen from the longer word, so
    enumerating deletions covers the whole graph.  Words equivalent through
    intermediates longer than cap may end up in separate components; the
    cross-check against the quadruple oracle confirms the cap is adequate.
    """
    words: list[tuple[int, ...]] = []
    for n in range(1, cap + 1):
        level = [()]
        for _ in range(n):
            level = [w + (c,) for w in level for c in range(alphabet)]
        words.extend(level)
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for w, wi in index.items():
        L = len(w)
        for i in range(L):
            for h in range(1, (L - i) // 2 + 1):
                if w[i:i + h] == w[i + h:i + 2 * h]:
                    union(wi, index[w[:i + h] + w[i + 2 * h:]])
    return {w: find(i) for w, i in index.items()}


def knuth_next(perm: list) -> tuple[list, int] | None:
    """Semantic single step: rotate the shortest non-descending prefix, or
    None at the final permutation."""
    n = len(perm)
    desc = list(range(n, 0, -1))
    k = 1
    while k <= n and perm[:k] == desc[:k]:
        k += 1
    if k > n:
        k = n
    if k == n:
        return None
    return perm[k:] + perm[:k][::-1], k
