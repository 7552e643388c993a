"""Attractors, local periods with one hole, 2-anticovers, and run-length
compressed cover / matching algorithms."""

from __future__ import annotations

from .rle import Run, check_runs, rle_length, rle_validate
from .twosat import TwoSatFormula, two_sat_solve
from .words import _THUE_MORSE_MAX, HOLE, SizeLimitError, approx_eq, fibonacci_word, zarray

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Sequence

_ATTRACTOR_MAX = 5000


def is_attractor(x: Sequence[int], positions: set[int] | Sequence[int]) -> bool:
    """True iff every distinct factor has an occurrence crossing one of the
    positions (Kempa and Prezza, STOC 2018).

    The distinct factors are the nodes of the suffix tree of x, each with
    the lengths on its edge; the internal nodes are the LCP intervals of
    the suffix array, a node's depth the interval's LCP (Abouelhoda, Kurtz
    and Ohlebusch, 2004), and a leaf's parent depth d is the larger LCP of
    its suffix with its two neighbours.  Every length on a node's edge
    occurs at the same starts i, the leaves below it, and an occurrence of
    length L at i crosses Γ iff next_Γ(i) - i < L.  So the shortest length,
    depth(parent) + 1, is the hardest to capture, and Γ is an attractor iff
    each node but the root has a leaf i below it with next_Γ(i) - i <=
    depth(parent).  Counting n in Γ changes no answer, since no occurrence
    reaches it, and bounds next_Γ(i) - i by n - i.  A leaf whose suffix is
    a prefix of a neighbour (n - i = d) has no edge and no factor of its
    own, and that bound passes it; its gap still counts for the intervals
    around it.

    The suffix array is Python's sort of the ``str`` suffixes of a key
    holding ``chr`` of each symbol's dense rank; a suffix starts at n less
    its length.  The n²/2 characters of the sorted keys take 1 byte each up
    to 256 distinct symbols and 2 beyond: 12.5 MB or 25 MB at the cap.
    Kasai's method (Kasai et al., CPM 2001) gives the LCPs, and one
    bottom-up stack pass over the intervals, each held as (depth, least
    gap), stops at the first failure.  Negative symbols, HOLE among them,
    are rejected."""
    n = len(x)
    if n > _ATTRACTOR_MAX:
        raise SizeLimitError(f"is_attractor bounded at |x| <= {_ATTRACTOR_MAX}")
    pos = sorted(set(positions))
    if pos and (pos[0] < 0 or pos[-1] >= n):
        raise ValueError("attractor position out of range")
    alphabet = sorted(set(x))
    if alphabet and alphabet[0] < 0:
        raise ValueError("symbols must be non-negative")
    code = {c: chr(r) for r, c in enumerate(alphabet)}
    key = "".join(map(code.__getitem__, x))
    sa = [n - len(s) for s in sorted([key[i:] for i in range(n)])]
    # Kasai's LCPs in text order: plcp[i] is the LCP of suffix i with the
    # suffix before it in sa, and plcp[i + 1] >= plcp[i] - 1
    before = [n] * n  # n, the -1 past x, precedes the least suffix: LCP 0
    for i, j in zip(sa, sa[1:]):
        before[j] = i
    text = list(x) + [-1]  # the -1 ends every match at the end of x
    plcp = [0] * (n + 1)  # plcp[n] = 0 closes the last interval
    h = 0
    for i, j in enumerate(before):
        while text[i + h] == text[j + h]:
            h += 1
        plcp[i] = h
        if h:
            h -= 1
    gap: list[int] = []  # gap[i] = next_Γ(i) - i, n counted in Γ
    lo = 0
    for p in pos + [n]:
        gap += range(p - lo, -1, -1)
        lo = p + 1
    # the open intervals, deepest on top; the top one is held in depth, low
    stack: list[tuple[int, int]] = []
    depth, low = 0, n
    for g, a in zip(map(gap.__getitem__, sa), map(plcp.__getitem__, sa[1:] + [n])):
        # a leaf with gap g: depth is its LCP with the suffix before it, a
        # with the one after, and the larger is its parent's depth
        if a > depth:  # a new interval opens at this leaf
            if g > a:
                return False
            stack.append((depth, low))
            depth, low = a, g
            continue
        if g > depth:
            return False
        if g < low:
            low = g
        while depth > a:  # close the top interval; its parent is the deeper
            under, under_low = stack[-1]  # of the one under it and a
            if low > (under if under > a else a):
                return False
            if under < a:
                depth = a
            else:
                stack.pop()
                depth = under
                if under_low < low:
                    low = under_low
    return True


def attractor_construct(family: str, k: int) -> set[int]:
    """Size <= 4 attractor on the k-th Thue-Morse word, or the 2-element
    attractor on the k-th Fibonacci word."""
    if family == "thue_morse":
        if k < 4:
            raise ValueError("thue_morse attractor construction needs k >= 4")
        if k > _THUE_MORSE_MAX:  # the word itself is capped there
            raise SizeLimitError(
                f"thue_morse attractor construction bounded at k <= {_THUE_MORSE_MAX}")
        return {
            1 << (k - 1),
            1 << (k - 2),
            (1 << (k - 1)) + (1 << (k - 2)),
            (1 << (k - 2)) + (1 << (k - 3)),
        }
    if family == "fibonacci":
        if k < 2:
            raise ValueError("fibonacci attractor construction needs k >= 2")
        prev_len = len(fibonacci_word(k - 1))
        return {prev_len - 2, prev_len - 1}
    raise ValueError(f"unknown family {family!r}")


def local_period_holds(x: Sequence[int], p: int) -> bool:
    """p is a local period of a word with holes: x[i] ~ x[i+p] everywhere."""
    if not 1 <= p <= len(x):
        raise ValueError("period out of range")
    if min(x) < HOLE:  # HOLE is -1, the one negative symbol with a meaning
        raise ValueError("symbols must be non-negative or HOLE")
    return all(approx_eq(x[i], x[i + p]) for i in range(len(x) - p))


# ---------------------------------------------------------------- anticovers


def _anticover_formula(x: Sequence[int]) -> tuple[TwoSatFormula, int]:
    """2-CNF encoding: variable i <=> the length-2 factor at (i, i+1) is
    chosen.  Auxiliary prefix/suffix-all-false variables express that each
    factor word is chosen at most once."""
    n = len(x)
    m = n - 1  # factor positions
    clauses: list[tuple] = []
    # coverage: position 0 and n-1 force the border factors
    clauses.append(((0, True), (0, True)))
    clauses.append(((m - 1, True), (m - 1, True)))
    for p in range(1, n - 1):
        clauses.append(((p - 1, True), (p, True)))

    occ: dict[tuple, list[int]] = {}
    for i in range(m):
        occ.setdefault((x[i], x[i + 1]), []).append(i)

    nv = m
    for w in sorted(occ):
        group = occ[w]
        g = len(group)
        alpha = nv  # alpha_j: all of group[:j+1] false
        beta = nv + g  # beta_j: all of group[j:] false
        nv += 2 * g
        for j in range(g):
            v = group[j]
            if j + 1 < g:
                clauses.append((((v, False), (beta + j + 1, True))))
                clauses.append((((beta + j, False), (beta + j + 1, True))))
            if j > 0:
                clauses.append((((v, False), (alpha + j - 1, True))))
                clauses.append((((alpha + j, False), (alpha + j - 1, True))))
            clauses.append(((alpha + j, False), (v, False)))
            clauses.append(((beta + j, False), (v, False)))
    return TwoSatFormula(nv, tuple(clauses)), m


def two_anticover(x: Sequence[int]) -> list[tuple[int, int]] | None:
    """Pairwise-distinct length-2 factors covering x, or None."""
    if len(x) < 2:
        raise ValueError("need |x| >= 2")
    f, m = _anticover_formula(x)
    vals = two_sat_solve(f)
    if vals is None:
        return None
    return [(i, i + 1) for i in range(m) if vals[i]]


def anticover_is_valid(x: Sequence[int], cover: Sequence[tuple[int, int]]) -> bool:
    """Independent validity check: distinct words, full coverage, borders in."""
    words = [tuple(x[i:j + 1]) for i, j in cover]
    if len(set(words)) != len(words):
        return False
    covered = set()
    for i, j in cover:
        if j != i + 1 or not 0 <= i < j < len(x):
            return False
        covered.update((i, j))
    if covered != set(range(len(x))):
        return False
    return (0, 1) in cover and (len(x) - 2, len(x) - 1) in cover


# ------------------------------------------------- RLE covers and matching


def _occurrences_of_alpha(runs: Sequence[Run]) -> tuple[list[int], list[int]]:
    """Starting positions of the pattern 1^k 0 (k = first run length), plus
    the index of the run holding each occurrence's 1-block."""
    k = runs[0][1]
    starts = []
    run_idx = []
    pos = 0
    for j, (bit, exp) in enumerate(runs):
        if bit == 1 and exp >= k and j + 1 < len(runs):
            starts.append(pos + exp - k)
            run_idx.append(j)
        pos += exp
    return starts, run_idx


def _sparse_prefix_table(runs: Sequence[Run]) -> tuple[list[int], list[int]]:
    """Prefix-match lengths for the sparse occurrence positions, computed with
    a Z-array over composite run letters."""
    s = len(runs)
    n = rle_length(runs)
    k = runs[0][1]
    starts, run_idx = _occurrences_of_alpha(runs)
    inner = list(runs[1:s - 1])
    z = zarray(inner)
    presum = [0] * (s + 1)
    for j, (_, exp) in enumerate(runs):
        presum[j + 1] = presum[j] + exp
    prefs = []
    for i, j in zip(starts, run_idx):
        if j == 0:
            prefs.append(n)
            continue
        m = z[j] if j < len(inner) else 0
        a, b0 = 1 + m, j + 1 + m
        if b0 > s - 1:
            prefs.append(n - i)
        else:
            # either a genuine exponent mismatch (b0 interior) or the final
            # run of the word (b0 == s-1); min() covers both
            partial = min(runs[a][1], runs[b0][1])
            prefs.append(k + (presum[1 + m] - presum[1]) + partial)
    return starts, prefs


def rle_shortest_cover(runs: Sequence[Run]) -> int:
    """Length of the shortest cover of the decoded word, in run-space: the
    smallest prefix-match value v such that the occurrences matching at
    least v symbols leave no gap wider than v.  The values are tried in
    increasing order, unlinking each value's occurrences from a doubly
    linked list once it fails."""
    rle_validate(runs)
    if len(runs) == 1:
        return 1
    n = rle_length(runs)
    starts, prefs = _sparse_prefix_table(runs)
    by_val: dict[int, list[int]] = {}
    for idx, v in enumerate(prefs):
        by_val.setdefault(v, []).append(idx)
    # occurrences 0..k-1 and a virtual end node k at position n; occurrence
    # 0 matches all n symbols, so it is never unlinked
    k = len(starts)
    pos = starts + [n]
    nxt = list(range(1, k + 1))
    prv = list(range(-1, k))
    maxgap = max(pos[i + 1] - pos[i] for i in range(k))
    for val in sorted(by_val):
        if maxgap <= val:
            return val
        for idx in by_val[val]:
            a, b = prv[idx], nxt[idx]
            nxt[a], prv[b] = b, a
            maxgap = max(maxgap, pos[b] - pos[a])
    return n


def rle_find(pattern: Sequence[Run], text: Sequence[Run]) -> bool:
    """Does the decoded pattern occur in the decoded text?  Linear in the
    total run count."""
    rle_validate(pattern)
    check_runs(text)  # the text may start with a 0-run
    t = len(pattern)
    if t == 1:
        bit, exp = pattern[0]
        return any(b == bit and e >= exp for b, e in text)
    middle = list(pattern[1:t - 1])
    sep = ("#", 0)
    seq = middle + [sep] + list(text)
    z = zarray(seq)
    lm = len(middle)
    for q in range(1, len(text) - lm):
        if z[lm + 1 + q] >= lm:
            before = text[q - 1]
            after = text[q + lm]
            if (
                before[0] == pattern[0][0]
                and before[1] >= pattern[0][1]
                and after[0] == pattern[-1][0]
                and after[1] >= pattern[-1][1]
            ):
                return True
    return False
