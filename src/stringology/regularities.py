"""Attractors, local periods with one hole, 2-anticovers, and run-length
compressed cover / matching algorithms."""

from __future__ import annotations

from typing import Sequence

from .rle import Run, rle_length, rle_validate
from .suffixtree import suffix_tree
from .twosat import TwoSatFormula, two_sat_solve
from .words import HOLE, approx_eq, fibonacci_word, zarray

_ATTRACTOR_MAX = 5000


def is_attractor(x: Sequence[int], positions: set[int] | Sequence[int]) -> bool:
    """True iff every distinct factor has an occurrence crossing one of the
    positions (Kempa and Prezza, STOC 2018).

    A factor is a node v of the suffix tree and a length on v's edge; its
    occurrences start at the leaf labels below v.  The shortest factor on
    the edge, of length depth(parent) + 1, is the hardest to capture, so Γ is
    an attractor exactly when each non-root node whose edge does not start
    with the sentinel has a leaf i below it with next_Γ(i) - i <=
    depth(parent).  One bottom-up pass over ``tree.order`` carries the least
    such gap up: O(n) after the tree build.  Negative symbols, HOLE among
    them, are rejected by the tree."""
    n = len(x)
    if n > _ATTRACTOR_MAX:
        raise ValueError(f"is_attractor bounded at |x| <= {_ATTRACTOR_MAX}")
    pos = sorted(set(positions))
    if pos and (pos[0] < 0 or pos[-1] >= n):
        raise ValueError("attractor position out of range")
    tree = suffix_tree(x)
    far = n + 1  # beyond every string depth: no position at or after i
    gap = [far] * (n + 1)  # gap[i] = next_Γ(i) - i for each leaf label i
    lo = 0
    for p in pos:
        gap[lo:p + 1] = range(p - lo, -1, -1)
        lo = p + 1
    low = [gap[i] if i >= 0 else far for i in tree.suffix_label]
    parent, depth, start, text = tree.parent, tree.depth, tree.start, tree.text
    sentinel = tree.sentinel
    for v in tree.order[:0:-1]:  # children before parents, the root left out
        u, g = parent[v], low[v]
        if g > depth[u] and text[start[v]] != sentinel:
            return False
        if g < low[u]:
            low[u] = g
    return True


def attractor_construct(family: str, k: int) -> set[int]:
    """Size <= 4 attractor on the k-th Thue-Morse word, or the 2-element
    attractor on the k-th Fibonacci word."""
    if family == "thue_morse":
        if k < 4:
            raise ValueError("thue_morse attractor construction needs k >= 4")
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


def tightness_example() -> list[int]:
    """One-hole word with coprime local periods 5 and 7 but not 1."""
    w = [0, 1, 0, 1, 0, 0, 1, 0, 1, 0]
    return w + [HOLE]


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
    """Length of the shortest cover of the decoded word, in run-space."""
    rle_validate(runs)
    if len(runs) == 1:
        return 1
    n = rle_length(runs)
    starts, prefs = _sparse_prefix_table(runs)
    # bucket occurrence indices by prefix-match value
    by_val: dict[int, list[int]] = {}
    for idx, v in enumerate(prefs):
        by_val.setdefault(v, []).append(idx)
    values = sorted(by_val)
    # doubly linked list over occurrences plus a virtual end node at position n
    order = list(range(len(starts))) + [len(starts)]
    posof = starts + [n]
    nxt = {order[i]: order[i + 1] for i in range(len(order) - 1)}
    prv = {order[i + 1]: order[i] for i in range(len(order) - 1)}
    maxgap = max(posof[nxt[i]] - posof[i] for i in list(nxt))
    prev_val = None
    for val in values:
        if prev_val is not None:
            for idx in by_val[prev_val]:
                a, b = prv[idx], nxt[idx]
                nxt[a] = b
                prv[b] = a
                maxgap = max(maxgap, posof[b] - posof[a])
        prev_val = val
        if maxgap <= val:
            return val
    return n


def rle_find(pattern: Sequence[Run], text: Sequence[Run]) -> bool:
    """Does the decoded pattern occur in the decoded text?  Linear in the
    total run count."""
    rle_validate(pattern)
    if not text:
        raise ValueError("empty text")
    for bit, exp in text:
        if bit not in (0, 1) or exp < 1:
            raise ValueError("malformed text runs")
    for i in range(1, len(text)):
        if text[i][0] == text[i - 1][0]:
            raise ValueError("adjacent text runs must alternate")
    t = len(pattern)
    if t == 1:
        bit, exp = pattern[0]
        return any(b == bit and e >= exp for b, e in text)
    if t == 2:
        (b1, e1), (b2, e2) = pattern
        return any(
            text[j][0] == b1 and text[j][1] >= e1
            and text[j + 1][0] == b2 and text[j + 1][1] >= e2
            for j in range(len(text) - 1)
        )
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
