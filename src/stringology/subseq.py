"""Subsequence algorithms: s-covers, short distinguishers, lexicographically
minimal subsequences, palindromic subsequences, and subsequence counting.

The distinguisher reference is ``oracles.shortest_distinguisher_length``; the
naive s-cover routes stay here while the benchmark reads them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .words import SizeLimitError, all_subsequences, fibonacci_number


@dataclass(frozen=True)
class SCoverTables:
    """Witness tables of the linear s-cover test."""

    first: tuple[int, ...]   # lexicographically first embedding, starts at 0
    last: tuple[int, ...]    # lexicographically last embedding, ends at |y|-1
    left: tuple[int, ...]    # LEFT[i]  = |{k in first : k < i}|
    right: tuple[int, ...]   # RIGHT[i] = |{k in last  : k > i}|
    p: tuple[int, ...]       # longest x-prefix ending with y[i] seen so far


def _first_embedding(x: Sequence[int], y: Sequence[int]) -> list[int] | None:
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


def _last_embedding(x: Sequence[int], y: Sequence[int]) -> list[int] | None:
    if not y or y[-1] != x[-1]:
        return None
    out = [len(y) - 1]
    j = len(x) - 2
    for i in range(len(y) - 2, -1, -1):
        if j < 0:
            break
        if y[i] == x[j]:
            out.append(i)
            j -= 1
    return out[::-1] if j < 0 else None


def s_cover_tables(x: Sequence[int], y: Sequence[int]) -> SCoverTables | None:
    """Tables of the s-cover test, or None when the border embeddings fail."""
    if not 1 <= len(x) < len(y):
        raise ValueError("need 1 <= |x| < |y|")
    first = _first_embedding(x, y)
    last = _last_embedding(x, y)
    if first is None or last is None:
        return None
    n, m = len(y), len(x)
    left = [0] * n
    seen = 0
    for i in range(n):
        left[i] = seen
        if seen < m and first[seen] == i:
            seen += 1
    right = [0] * n
    seen = 0
    for i in range(n - 1, -1, -1):
        right[i] = seen
        if seen < m and last[m - 1 - seen] == i:
            seen += 1
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
    candidates = sorted(all_subsequences(y))
    best = None
    for cand in sorted(candidates, key=lambda c: (len(c), c)):
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
    Each row costs a few big-int operations on the match mask of u[i-1]
    in v.

    The traceback walks from (n, m) as the table DP of
    ``oracles.lcs_table`` does: a match steps diagonally, otherwise it
    steps up when T[i-1][j] >= T[i][j-1], else left.  Off a match
    T[i][j] is the larger of the two, so "up" is T[i-1][j] == T[i][j];
    the output is the oracle's, position for position, which
    ``longest_palindromic_subsequence`` relies on.  The n+1 rows take
    about n*m/8 bytes (2 MB at the 4000 cap), not (n+1)(m+1) boxed ints.
    """
    n, m = len(u), len(v)
    if n > 4000 or m > 4000:
        raise SizeLimitError("lcs bounded at 4000")
    masks: dict[int, int] = {}
    for j, c in enumerate(v):
        masks[c] = masks.get(c, 0) | (1 << j)
    full = (1 << m) - 1
    s = full
    rows = [s]
    for c in u:
        match = masks.get(c, 0)
        s = ((s + (s & match)) | (s & ~match)) & full
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
        else:
            j -= 1
    return alpha[::-1], beta[::-1]


def longest_palindromic_subsequence(x: Sequence[int]) -> list[int]:
    """Longest palindromic subsequence via mutually reversed subsequences."""
    n = len(x)
    if n == 0:
        return []
    alpha, beta = lcs(x, list(reversed(x)))
    gamma = [n - 1 - b for b in reversed(beta)]
    L = len(alpha)
    # pair positions (alpha[s], gamma[L-1-s]); the prefix where the first
    # coordinate stays left of the second nests into a palindrome, and so
    # does the symmetric suffix; an equal pair supplies an odd middle
    cands: list[list[int]] = []
    a = alpha
    g = [gamma[L - 1 - s] for s in range(L)]
    h = 0
    while h < L and a[h] < g[h]:
        h += 1
    pref = [x[a[s]] for s in range(h)]
    cands.append(pref + pref[::-1])
    if h < L and a[h] == g[h]:
        cands.append(pref + [x[a[h]]] + pref[::-1])
    h2 = L
    while h2 > 0 and a[h2 - 1] > g[h2 - 1]:
        h2 -= 1
    suf = [x[g[s]] for s in range(L - 1, h2 - 1, -1)]
    cands.append(suf + suf[::-1])
    if h2 > 0 and a[h2 - 1] == g[h2 - 1]:
        cands.append(suf + [x[a[h2 - 1]]] + suf[::-1])
    best_len = max(len(c) for c in cands)
    best = min(c for c in cands if len(c) == best_len)
    return best


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
    return fibonacci_number(n + 3) - 1
