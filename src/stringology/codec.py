"""Single-error-correcting Hamming codes, Huffman cost vs entropy, and the
alphabet-pairing compression step."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class HammingCode:
    r: int
    k: int
    n: int
    m_columns: tuple[int, ...]  # columns of M as r-bit integers, MSB = first row

    @property
    def p_columns(self) -> tuple[int, ...]:
        return self.m_columns + tuple(1 << (self.r - 1 - i) for i in range(self.r))


def hamming_build(r: int) -> HammingCode:
    """Code with parity-check columns running over all nonzero r-bit words.

    M holds the columns of weight >= 2, ordered by descending popcount and
    then descending value; the identity block supplies the weight-1 columns.
    """
    if not 3 <= r <= 16:
        raise ValueError("need 3 <= r <= 16")
    cols = [v for v in range(1, 1 << r) if bin(v).count("1") >= 2]
    cols.sort(key=lambda v: (-bin(v).count("1"), -v))
    k = (1 << r) - r - 1
    return HammingCode(r=r, k=k, n=(1 << r) - 1, m_columns=tuple(cols))


def hamming_matrix(code: HammingCode) -> list[list[int]]:
    """M as a list of r rows of k bits."""
    return [
        [(c >> (code.r - 1 - row)) & 1 for c in code.m_columns]
        for row in range(code.r)
    ]


def hamming_encode(code: HammingCode, w: Sequence[int]) -> list[int]:
    """Message followed by its r parity bits."""
    if len(w) != code.k or any(b not in (0, 1) for b in w):
        raise ValueError(f"message must be {code.k} bits")
    acc = 0
    for bit, col in zip(w, code.m_columns):
        if bit:
            acc ^= col
    parity = [(acc >> (code.r - 1 - i)) & 1 for i in range(code.r)]
    return list(w) + parity


def hamming_syndrome(code: HammingCode, y: Sequence[int]) -> int:
    acc = 0
    for bit, col in zip(y, code.p_columns):
        if bit:
            acc ^= col
    return acc


def hamming_correct(code: HammingCode, y: Sequence[int]) -> tuple[list[int], int | None]:
    """Correct at most one flipped bit; returns (codeword, error position)."""
    if len(y) != code.n or any(b not in (0, 1) for b in y):
        raise ValueError(f"received word must be {code.n} bits")
    s = hamming_syndrome(code, y)
    if s == 0:
        return list(y), None
    pos = code.p_columns.index(s)
    fixed = list(y)
    fixed[pos] ^= 1
    return fixed, pos


# ------------------------------------------------------------------ Huffman


def _check_weights(p: Sequence[float]) -> None:
    if not p:
        raise ValueError("need at least one weight")
    if any(w <= 0 for w in p):
        raise ValueError("weights must be positive")
    if abs(sum(p) - 1.0) > WEIGHT_TOL:
        raise ValueError("weights must sum to 1")


def huffman_cost(p: Sequence[float]) -> tuple[float, list[int]]:
    """Minimal average depth and the per-leaf depth list.

    Ties merge the two earliest-inserted entries, so depth lists are
    reproducible; the cost itself is tie-invariant.
    """
    _check_weights(p)
    n = len(p)
    if n == 1:
        return 0.0, [0]
    heap = [(w, i) for i, w in enumerate(p)]
    heapq.heapify(heap)
    children: dict[int, tuple[int, int]] = {}
    counter = n
    while len(heap) > 1:
        w1, a = heapq.heappop(heap)
        w2, b = heapq.heappop(heap)
        children[counter] = (a, b)
        heapq.heappush(heap, (w1 + w2, counter))
        counter += 1
    root = heap[0][1]
    depths = [0] * n
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        if node < n:
            depths[node] = d
        else:
            a, b = children[node]
            stack.append((a, d + 1))
            stack.append((b, d + 1))
    cost = sum(w * d for w, d in zip(p, depths))
    return cost, depths


def kraft_sum(depths: Sequence[int]) -> Fraction:
    """Exact sum of 2**-depth over the leaves."""
    return sum((Fraction(1, 2 ** d) for d in depths), Fraction(0))


def entropy(p: Sequence[float]) -> float:
    _check_weights(p)
    return -sum(w * math.log2(w) for w in p)


# --------------------------------------------------------------- pairing


@dataclass(frozen=True)
class PairPartition:
    left: frozenset[int]
    right: frozenset[int]


def shrink_runs(x: Sequence[int]) -> list[int]:
    """Collapse every maximal run of equal letters to a single letter."""
    out: list[int] = []
    for s in x:
        if not out or out[-1] != s:
            out.append(s)
    return out


def pairing_partition(x: Sequence[int]) -> PairPartition:
    """Greedy vertex split of the adjacency multigraph guaranteeing that
    left-right pairs cover at least a quarter of the adjacent positions."""
    if len(x) < 2:
        raise ValueError("need |x| >= 2")
    if any(a == b for a, b in zip(x, x[1:])):
        raise ValueError("input must not contain unary runs")
    order: list[int] = []
    for s in x:
        if s not in order:
            order.append(s)
    out_deg: dict[int, dict[int, int]] = {v: {} for v in order}
    in_deg: dict[int, dict[int, int]] = {v: {} for v in order}
    for a, b in zip(x, x[1:]):
        out_deg[a][b] = out_deg[a].get(b, 0) + 1
        in_deg[b][a] = in_deg[b].get(a, 0) + 1
    left: set[int] = set()
    right: set[int] = set()
    m = set(order)

    def potential() -> int:
        p = 0
        for a, targets in out_deg.items():
            for b, c in targets.items():
                if a in left and b in right:
                    p += 4 * c
                elif a in left and b in m:
                    p += 2 * c
                elif a in m and b in right:
                    p += 2 * c
                elif a in m and b in m:
                    p += c
        return p

    phi = potential()
    for v in order:
        m.discard(v)
        to_right = sum(c for b, c in out_deg[v].items() if b in right)
        to_m = sum(c for b, c in out_deg[v].items() if b in m)
        from_left = sum(c for a, c in in_deg[v].items() if a in left)
        from_m = sum(c for a, c in in_deg[v].items() if a in m)
        if 2 * to_right + to_m >= 2 * from_left + from_m:
            left.add(v)
        else:
            right.add(v)
        new_phi = potential()
        assert new_phi >= phi, "pairing potential decreased"
        phi = new_phi
    return PairPartition(frozenset(left), frozenset(right))


def compress_pairs(x: Sequence[int], part: PairPartition) -> list[int]:
    """Replace each left-right adjacent pair by a fresh letter, scanning left
    to right without overlap; fresh ids follow first-occurrence order."""
    if not set(x) <= (part.left | part.right):
        raise ValueError("partition must cover the alphabet of x")
    if part.left & part.right:
        raise ValueError("partition sides must be disjoint")
    fresh = max(x, default=-1) + 1
    pair_ids: dict[tuple[int, int], int] = {}
    out: list[int] = []
    i = 0
    while i < len(x):
        if i + 1 < len(x) and x[i] in part.left and x[i + 1] in part.right:
            key = (x[i], x[i + 1])
            if key not in pair_ids:
                pair_ids[key] = fresh
                fresh += 1
            out.append(pair_ids[key])
            i += 2
        else:
            out.append(x[i])
            i += 1
    return out
