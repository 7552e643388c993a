"""Idempotent (free band) equivalence of words: the congruence generated by
identifying uu with u, decided through characteristic quadruples.  Its
references are ``oracles.band_signature`` and
``oracles.rewrite_closure_classes``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

_ALPHABET_MAX = 64


@dataclass(frozen=True)
class Quadruple:
    prefix: tuple[int, ...]
    first_new: int   # letter completing the alphabet from the left
    last_new: int    # letter completing the alphabet from the right
    suffix: tuple[int, ...]


def psi(x: Sequence[int]) -> Quadruple:
    """Characteristic quadruple (p, a, b, q): pa is the shortest prefix and
    bq the shortest suffix using the full alphabet of x."""
    if not x:
        raise ValueError("need a non-empty word")
    full = len(set(x))
    seen: set[int] = set()
    for i, c in enumerate(x):
        seen.add(c)
        if len(seen) == full:
            p, a = tuple(x[:i]), c
            break
    seen = set()
    for i in range(len(x) - 1, -1, -1):
        seen.add(x[i])
        if len(seen) == full:
            b, q = x[i], tuple(x[i + 1:])
            break
    return Quadruple(p, a, b, q)


def _rank_windows(z: Sequence[int], k: int) -> tuple[list[int], list[int]]:
    """right_k[i] = largest j with |alph(z[i..j])| = k (or -1 when fewer than
    k letters remain); left_k[j] symmetric."""
    n = len(z)
    right = [-1] * n
    counts: dict[int, int] = {}
    j = -1  # window [i, j] holds at most k distinct letters, maximal j
    distinct = 0
    for i in range(n):
        if j < i - 1:
            j = i - 1
        while j + 1 < n:
            c = z[j + 1]
            if counts.get(c, 0) == 0 and distinct == k:
                break
            counts[c] = counts.get(c, 0) + 1
            if counts[c] == 1:
                distinct += 1
            j += 1
        right[i] = j if distinct == k else -1
        if j >= i:
            counts[z[i]] -= 1
            if counts[z[i]] == 0:
                distinct -= 1
        else:
            j = i
    left = [-1] * n
    counts = {}
    distinct = 0
    i = n  # window [i, j], minimal i with at most k distinct, going leftward
    for j in range(n - 1, -1, -1):
        if i > j + 1:
            i = j + 1
        while i - 1 >= 0:
            c = z[i - 1]
            if counts.get(c, 0) == 0 and distinct == k:
                break
            counts[c] = counts.get(c, 0) + 1
            if counts[c] == 1:
                distinct += 1
            i -= 1
        left[j] = i if distinct == k else -1
        if i <= j:
            counts[z[j]] -= 1
            if counts[z[j]] == 0:
                distinct -= 1
        else:
            i = j
    return right, left


def idempotent_equivalent(x: Sequence[int], y: Sequence[int]) -> bool:
    """Dynamic-programming equivalence test over the essential factors of
    the joined word x $ y, assigning dense class ids rank by rank."""
    if len(set(x) | set(y)) > _ALPHABET_MAX:
        raise ValueError(f"combined alphabet bounded at {_ALPHABET_MAX}")
    if not x or not y:
        return list(x) == list(y)
    if set(x) != set(y):
        return False
    sep = max(max(x), max(y)) + 1
    z = list(x) + [sep] + list(y)
    n = len(z)
    span_x = (0, len(x) - 1)
    span_y = (len(x) + 1, n - 1)

    ranks = len(set(z))
    tables = {k: _rank_windows(z, k) for k in range(1, ranks + 1)}

    ids: dict[tuple[int, int], int] = {}
    # rank 1: essential unary factors get the letter itself as id
    right1, left1 = tables[1]
    for i in range(n):
        if right1[i] >= i:
            ids[(i, right1[i])] = z[i]
    for j in range(n):
        if left1[j] >= 0:
            ids[(left1[j], j)] = z[j]

    for k in range(2, ranks + 1):
        rightk, leftk = tables[k]
        spans = set()
        for i in range(n):
            if rightk[i] >= 0:
                spans.add((i, rightk[i]))
        for j in range(n):
            if leftk[j] >= 0:
                spans.add((leftk[j], j))
        prev_right, prev_left = tables[k - 1]
        quads = {}
        for (r, s) in spans:
            rp = prev_right[r]
            sp = prev_left[s]
            quads[(r, s)] = (ids[(r, rp)], z[rp + 1], z[sp - 1], ids[(sp, s)])
        order = {quad: idx for idx, quad in enumerate(sorted(set(quads.values())))}
        for span, q in quads.items():
            ids[span] = order[q]
    return ids[span_x] == ids[span_y]
