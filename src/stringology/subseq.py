"""Subsequence algorithms: s-covers, short distinguishers, lexicographically
minimal subsequences, palindromic subsequences, and subsequence counting.

The s-cover test follows the paper's lists L and R of y-positions: L is the
lexicographically first embedding of x in y with p_1 = 0, and R the last one
with q_m = n-1 (the paper's ``q_m = m-1`` reads n-1 here, the last position
of y).  R is L of the reversed words, read backwards, so one greedy scan
builds both, and RIGHT is LEFT of the mirror.

The distinguisher reference is ``oracles.shortest_distinguisher_length``; the
naive s-cover routes stay here while the benchmark reads them."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import add
from typing import Sequence

from .words import SizeLimitError, all_subsequences, fibonacci_number

_HARD_PAIR_MAX = 10 ** 6
_MAX_SUBS_MAX = 2 * 10 ** 4  # the answer has 4181 digits, within the 4300 that print


@dataclass(frozen=True)
class SCoverTables:
    """Witness tables of the linear s-cover test."""

    first: tuple[int, ...]   # lexicographically first embedding, starts at 0
    last: tuple[int, ...]    # lexicographically last embedding, ends at |y|-1
    left: tuple[int, ...]    # LEFT[i]  = |{k in first : k < i}|
    right: tuple[int, ...]   # RIGHT[i] = |{k in last  : k > i}|
    p: tuple[int, ...]       # longest x-prefix ending with y[i] seen so far


def _first_embedding(x: Sequence[int], y: Sequence[int]) -> list[int] | None:
    """L, the greedy leftmost embedding of x in y, when it starts at 0."""
    if not y or y[0] != x[0]:
        return None
    out = [0]
    j = 1
    for i in range(1, len(y)):
        if j == len(x):
            break
        if y[i] == x[j]:
            out.append(i)
            j += 1
    return out if j == len(x) else None


def _counts_before(emb: list[int], n: int) -> list[int]:
    """c[i] = |{k in emb : k < i}| for an increasing position list emb."""
    out = [0] * n
    seen = 0
    for i in range(n):
        out[i] = seen
        if seen < len(emb) and emb[seen] == i:
            seen += 1
    return out


def s_cover_tables(x: Sequence[int], y: Sequence[int]) -> SCoverTables | None:
    """Tables of the s-cover test, or None when the border embeddings fail."""
    if not 1 <= len(x) < len(y):
        raise ValueError("need 1 <= |x| < |y|")
    first = _first_embedding(x, y)
    mirror = _first_embedding(x[::-1], y[::-1])  # R, read backwards
    if first is None or mirror is None:
        return None
    n, m = len(y), len(x)
    last = [n - 1 - i for i in reversed(mirror)]
    left = _counts_before(first, n)
    right = _counts_before(mirror, n)[::-1]
    # p[i] = longest prefix of x ending with letter y[i] that embeds in y[:i+1]
    f: dict[int, int] = {}
    p = [0] * n
    nxt = 0
    for i in range(n):
        if nxt < m and first[nxt] == i:
            f[x[nxt]] = nxt + 1
            nxt += 1
        p[i] = f.get(y[i], 0)
    return SCoverTables(tuple(first), tuple(last), tuple(left), tuple(right), tuple(p))


def s_cover_check(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff every position of y lies on an occurrence of x as a subsequence."""
    t = s_cover_tables(x, y)
    if t is None:
        return False
    m = len(x)
    return all(pi > 0 and pi + ri >= m for pi, ri in zip(t.p, t.right))


def s_cover_positions_naive(x: Sequence[int], y: Sequence[int]) -> set[int]:
    """Covered positions by pairing greedy prefix and suffix embeddings."""
    n, m = len(y), len(x)
    pre = [0] * (n + 1)  # longest x-prefix embeddable in y[:i]
    for i in range(n):
        pre[i + 1] = pre[i] + (1 if pre[i] < m and y[i] == x[pre[i]] else 0)
    suf = [0] * (n + 1)  # longest x-suffix embeddable in y[i:]
    for i in range(n - 1, -1, -1):
        suf[i] = suf[i + 1] + (1 if suf[i + 1] < m and y[i] == x[m - 1 - suf[i + 1]] else 0)
    covered = set()
    for i in range(n):
        for k in range(m):
            if x[k] == y[i] and pre[i] >= k and suf[i + 1] >= m - k - 1:
                covered.add(i)
                break
    return covered


def s_cover_check_naive(x: Sequence[int], y: Sequence[int]) -> bool:
    return len(s_cover_positions_naive(x, y)) == len(y)


def shortest_s_cover_naive(y: Sequence[int]) -> list[int]:
    """Shortest s-cover by exhaustive search over subsequences of y."""
    if len(y) > 18:
        raise SizeLimitError("shortest_s_cover_naive bounded at |y| <= 18")
    best = None
    for cand in sorted(all_subsequences(y), key=lambda c: (len(c), c)):
        if not 1 <= len(cand) < len(y):
            continue
        if s_cover_check_naive(cand, y):
            best = list(cand)
            break
    return best if best is not None else list(y)


# ---------------------------------------------------------- distinguishers


def _erase(w: Sequence[int], c: int) -> list[int]:
    return [s for s in w if s != c]


def distinguisher_candidates(x: Sequence[int], y: Sequence[int]) -> tuple[list[int], list[int]]:
    """The two candidate distinguishers built around the first b-position
    where the equal-letter-count words x and y disagree."""
    n = len(x)

    def positions_of_b(w):
        return [i for i, s in enumerate(w) if s == 1]

    px, py = positions_of_b(x), positions_of_b(y)
    pivot = next(
        i for i in range(min(len(px), len(py))) if px[i] != py[i]
    )
    if px[pivot] > py[pivot]:
        x, px = y, py  # make x the word with the earlier pivot occurrence
    cut = px[pivot]
    x1, x2 = x[:cut], x[cut + 1:]
    z1 = _erase(x1, 1) + [0, 1] + _erase(x2, 0)
    z2 = _erase(x1, 0) + [1] + _erase(x2, 1)
    return z1, z2


def distinguishing_subsequence(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """A word of length <= ceil((n+1)/2) that is a subsequence of exactly one
    of the two distinct equal-length binary words."""
    if any(s not in (0, 1) for s in (*x, *y)):
        raise ValueError("words must be binary")
    if list(x) == list(y):
        raise ValueError("words are equal, no distinguisher exists")
    if len(x) != len(y):
        raise ValueError("words must have equal length")
    ax, ay = x.count(0), y.count(0)
    if ax != ay:
        k = min(ax, ay) + 1
        bx, by = len(x) - ax, len(y) - ay
        l = min(bx, by) + 1
        return [0] * k if k <= l else [1] * l
    z1, z2 = distinguisher_candidates(x, y)
    return z2 if len(z2) <= len(z1) else z1


def hard_pair(n: int) -> tuple[list[int], list[int]]:
    """Distinct length-n binary words whose shortest distinguisher has length
    exactly ceil((n+1)/2)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > _HARD_PAIR_MAX:
        raise SizeLimitError(f"hard_pair bounded at n <= {_HARD_PAIR_MAX}")
    m = n // 2
    x = [0, 1] * m
    y = [1, 0] * m
    if n % 2:
        x, y = x + [0], y + [0]
    return x, y


# ------------------------------------------------------------------ MinSub


def min_sub(x: Sequence[int], k: int) -> list[int]:
    """Lexicographically smallest length-k subsequence, one stack pass."""
    if not 1 <= k <= len(x):
        raise ValueError("need 1 <= k <= |x|")
    rest = len(x) - k
    stack: list[int] = []
    for a in x:
        while stack and a < stack[-1] and rest > 0:
            stack.pop()
            rest -= 1
        stack.append(a)
    return stack[:k]


# --------------------------------------------------------------------- LCS


def lcs(u: Sequence[int], v: Sequence[int]) -> tuple[list[int], list[int]]:
    """Longest common subsequence; returns aligned position lists.

    Row i of the LCS table T (prefixes u[:i] against v) is held as one m-bit
    int, the bit-vector recurrence of Allison and Dix (1986) in the form of
    Hyyro (2004): bit j of ``rows[i]`` is 0 exactly where
    T[i][j+1] = T[i][j] + 1, so T[i][j] = j - popcount(rows[i] & (2^j - 1)).
    With M the match mask of u[i-1] in v and x = s & M, the next row is
    ``((s + x) | (s & ~M)) & full``; x is a submask of s, so s & ~M is s - x.

    The traceback walks from (n, m) as the table DP of
    ``oracles.lcs_table`` does: a match steps diagonally, otherwise it
    steps up when T[i-1][j] >= T[i][j-1], else left.  Off a match
    T[i][j] is the larger of the two, so "up" is T[i-1][j] == T[i][j];
    the output is the oracle's, position for position, which
    ``longest_palindromic_subsequence`` relies on.

    A left run ends in one jump.  Let t = T[i][j] > 0 with no match at
    (i, j) and the up test failed: then T[i-1][j] = t - 1 and T[i][j-1] = t.
    Row i-1 does not decrease in j, so T[i-1][j'] <= t - 1 for every
    j' <= j, and the up test fails at each column the walk reaches in
    row i; T[i][j'] stays t on the way, so each of those steps is "left"
    until a match.  T[i][0] = 0 < t, so the match exists: it is the
    largest j' < j with v[j'-1] == u[i-1], the bit length of M's bits
    below j-1.  The n+1 rows take about n*m/8 bytes (2 MB at the 4000
    cap), not (n+1)(m+1) boxed ints.
    """
    n, m = len(u), len(v)
    if n > 4000 or m > 4000:
        raise SizeLimitError("lcs bounded at 4000")
    masks: dict[int, int] = {}
    for j, c in enumerate(v):
        masks[c] = masks.get(c, 0) | (1 << j)
    match = list(map(masks.get, u, repeat(0)))
    full = (1 << m) - 1
    s = full
    rows = [s]
    for mask in match:
        x = s & mask
        s = ((s + x) | (s - x)) & full
        rows.append(s)
    alpha: list[int] = []
    beta: list[int] = []
    i, j = n, m
    t = m - s.bit_count()  # T[i][j]
    while t:  # at T[i][j] == 0, u[:i] and v[:j] share no symbol
        if u[i - 1] == v[j - 1]:
            alpha.append(i - 1)
            beta.append(j - 1)
            i -= 1
            j -= 1
            t -= 1
        elif j - (rows[i - 1] & ((1 << j) - 1)).bit_count() == t:  # T[i-1][j]
            i -= 1
        else:  # the left run to the next match in row i
            j = (match[i - 1] & ((1 << (j - 1)) - 1)).bit_length()
    return alpha[::-1], beta[::-1]


def longest_palindromic_subsequence(x: Sequence[int]) -> list[int]:
    """Longest palindromic subsequence via mutually reversed subsequences.

    ``lcs(x, x[::-1])`` pairs position alpha[s] of x with n-1-beta[s], which
    holds the same letter; the first rises and the second falls, so they
    cross where
    alpha[s] + beta[s], which strictly increases, passes n-1.  The pairs
    before the crossing nest into an even palindrome, and so do those after
    it read from the end; a pair with alpha[s] + beta[s] = n-1 pairs a
    position with itself and is the odd middle of both.  Of those two
    candidates the longer one is returned, the lexicographically least on
    a tie."""
    n = len(x)
    if n == 0:
        return []
    alpha, beta = lcs(x, x[::-1])
    sums = list(map(add, alpha, beta))
    h = bisect_left(sums, n - 1)  # pairs left of the crossing
    k = bisect_right(sums, n - 1)  # h + 1 exactly when a middle exists
    mid = [x[alpha[h]]] if k > h else []
    pref = list(map(x.__getitem__, alpha[:h]))
    suf = list(map(x.__getitem__, reversed(alpha[k:])))
    left, right = pref + mid + pref[::-1], suf + mid + suf[::-1]
    if len(left) != len(right):
        return max(left, right, key=len)
    return min(left, right)


# ------------------------------------------------------------- counting


def count_subsequences(x: Sequence[int]) -> int:
    """Number of distinct subsequences (with the empty word), counted as
    paths of the subsequence automaton."""
    n = len(x)
    if n > 60:
        raise SizeLimitError("count_subsequences bounded at |x| <= 60")
    alphabet = sorted(set(x))
    nxt = {c: [n] * (n + 1) for c in alphabet}
    for i in range(n - 1, -1, -1):
        for c in alphabet:
            nxt[c][i] = nxt[c][i + 1]
        nxt[x[i]][i] = i
    paths = [0] * (n + 2)
    paths[n] = 1  # the empty continuation
    for i in range(n - 1, -1, -1):
        total = 1
        for c in alphabet:
            j = nxt[c][i]
            if j < n:
                total += paths[j + 1]
        paths[i] = total
    return paths[0]


def max_subs(n: int) -> int:
    """Largest subsequence count over binary words of length n: F(n+3) - 1."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n > _MAX_SUBS_MAX:
        raise SizeLimitError(f"max_subs bounded at n <= {_MAX_SUBS_MAX}")
    return fibonacci_number(n + 3) - 1
