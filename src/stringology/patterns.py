"""Superpatterns for permutations and universal words for window shapes."""

from __future__ import annotations

import math
from typing import Sequence


def superpattern_word(n: int) -> list[int]:
    """Word over 1..n+1 of length (n*n+n)/2 containing every n-permutation
    as an order-equivalent subsequence: alternately ascending odd letters and
    descending even letters, n groups in total."""
    if n < 1:
        raise ValueError("need n >= 1")
    asc = list(range(1, n + 2, 2))
    desc = list(range(n + 1 if n % 2 else n, 0, -2))
    out: list[int] = []
    for g in range(n):
        out.extend(asc if g % 2 == 0 else desc)
    return out


def _group_lengths(n: int) -> tuple[int, int]:
    asc = (n + 2) // 2
    return asc, n + 1 - asc


def greedy_embedding(pi: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Greedy left-to-right embedding of pi into the unbounded alternation of
    ascending/descending groups; returns (1-based positions, jump list)."""
    la, ld = _group_lengths(n)
    period = la + ld

    def next_position(value: int, after: int) -> int:
        # positions are 1-based; the letter sits at one fixed offset per period
        if value % 2:  # odd letters live in ascending groups
            off = (value + 1) // 2
        else:
            off = la + (ld - value // 2 + 1)
        if off > after:
            return off
        k = (after - off) // period + 1
        return off + k * period

    def group_of(pos: int) -> int:
        if pos == 0:
            return 0
        q, r = divmod(pos - 1, period)
        return 2 * q + (1 if r < la else 2)

    positions: list[int] = []
    jumps: list[int] = []
    prev = 0
    for v in pi:
        if not 1 <= v <= n + 1:
            raise ValueError("letters must lie in 1..n+1")
        pos = next_position(v, prev)
        jumps.append(group_of(pos) - group_of(prev))
        positions.append(pos)
        prev = pos
    return positions, jumps


def jumps_total(pi: Sequence[int], n: int) -> int:
    return sum(greedy_embedding(pi, n)[1])


def embed_permutation(pi: Sequence[int]) -> list[int]:
    """0-based positions embedding pi order-equivalently into
    superpattern_word(len(pi)); falls back to the shifted copy of pi."""
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise ValueError("expected a permutation of 1..n")
    limit = (n * n + n) // 2
    positions, _ = greedy_embedding(pi, n)
    if positions[-1] > limit:
        positions, _ = greedy_embedding([v + 1 for v in pi], n)
        if positions[-1] > limit:
            raise AssertionError("greedy embedding failed for both copies")
    return [p - 1 for p in positions]


def shape(u: Sequence[int]) -> tuple[int, ...]:
    """The permutation of 1..|u| order-equivalent to u."""
    if len(set(u)) != len(u):
        raise ValueError("letters must be pairwise distinct")
    order = {v: i + 1 for i, v in enumerate(sorted(u))}
    return tuple(order[v] for v in u)


def window_shapes(w: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """Shapes of all length-n windows (each window must have distinct letters)."""
    return [shape(w[i:i + n]) for i in range(len(w) - n + 1)]


def is_universal_shape_word(w: Sequence[int], n: int) -> bool:
    shapes = window_shapes(w, n)
    return len(shapes) == math.factorial(n) and len(set(shapes)) == len(shapes)


def shape_graph_euler_labels(n: int) -> list[int]:
    """Labels of an Euler cycle over the graph whose nodes are the
    (n-1)-permutations and whose edges append one of n relative ranks."""
    start = tuple(range(1, n))
    adj: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    import itertools

    for pi in itertools.permutations(range(1, n + 1)):
        src = shape(pi[:-1])
        dst = shape(pi[1:])
        adj.setdefault(src, []).append((pi[-1], dst))
    for lst in adj.values():
        lst.sort(reverse=True)  # pop() then yields the smallest label first

    # Hierholzer with deterministic smallest-label choice
    stack: list[tuple[tuple[int, ...], int | None]] = [(start, None)]
    circuit_labels: list[int] = []
    while stack:
        node, via = stack[-1]
        if adj.get(node):
            label, nxt = adj[node].pop()
            stack.append((nxt, label))
        else:
            stack.pop()
            if via is not None:
                circuit_labels.append(via)
    return circuit_labels[::-1]


def lift(alpha: Sequence[int], a: int) -> list[int]:
    """Add one to every element greater than or equal to a."""
    return [v + 1 if v >= a else v for v in alpha]


def extend_universal(alpha: Sequence[int], k: int, n: int) -> list[int]:
    """One extension step: realize the next edge label k on the suffix."""
    beta = list(alpha[-(n - 1):])
    if k < n:
        a = sorted(beta)[k - 1]
    else:
        a = max(beta) + 1
    return lift(alpha, a) + [a]


def universal_shape_word(n: int) -> list[int]:
    """Word of length n! + n - 1 whose length-n windows realize every
    n-permutation shape exactly once."""
    if not 2 <= n <= 7:
        raise ValueError("need 2 <= n <= 7")
    labels = shape_graph_euler_labels(n)
    alpha = list(range(1, n))
    for k in labels:
        alpha = extend_universal(alpha, k, n)
    return alpha
