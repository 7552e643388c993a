"""Single-error-correcting Hamming codes, Huffman cost vs entropy, and the
alphabet-pairing compression step."""

from __future__ import annotations

import heapq
import math

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Sequence

WEIGHT_TOL = 1e-9


class HammingCode:
    __slots__ = ("r", "k", "n", "m_columns", "p_columns")

    def __init__(self, r: int, k: int, n: int, m_columns: tuple[int, ...]):
        self.r, self.k, self.n = r, k, n
        self.m_columns = m_columns  # columns of M as r-bit integers, MSB = first row
        self.p_columns = m_columns + tuple(1 << (r - 1 - i) for i in range(r))  # M, then I


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
    if not all(map(math.isfinite, p)):
        raise ValueError("weights must be finite")
    if any(w <= 0 for w in p):
        raise ValueError("weights must be positive")
    if abs(sum(p) - 1.0) > WEIGHT_TOL:
        raise ValueError("weights must sum to 1")


def huffman_cost(p: Sequence[float]) -> tuple[float, list[int]]:
    """Minimal average depth and the per-leaf depth list.

    Leaves are ids 0..n-1 and the i-th merge makes node n + i, the parent of
    the two lightest entries; ties merge the two earliest-inserted entries,
    so depth lists are reproducible (the cost itself is tie-invariant).  A
    parent's id exceeds its children's, so one pass down the ids gives each
    depth.
    """
    _check_weights(p)
    n = len(p)
    if n == 1:
        return 0.0, [0]
    heap = [(w, i) for i, w in enumerate(p)]
    heapq.heapify(heap)
    parent = [0] * (2 * n - 1)
    for node in range(n, 2 * n - 1):
        w1, a = heapq.heappop(heap)
        w2, b = heapq.heappop(heap)
        parent[a] = parent[b] = node
        heapq.heappush(heap, (w1 + w2, node))
    depth = [0] * (2 * n - 1)  # the root, node 2n - 2, has depth 0
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    depths = depth[:n]
    return sum(w * d for w, d in zip(p, depths)), depths


def kraft_sum(depths: Sequence[int]) -> Fraction:
    """Exact sum of 2**-depth over the leaves."""
    from fractions import Fraction  # imports re: paid only by its callers

    return sum((Fraction(1, 2 ** d) for d in depths), Fraction(0))


def entropy(p: Sequence[float]) -> float:
    _check_weights(p)
    return -sum(w * math.log2(w) for w in p)


# --------------------------------------------------------------- pairing


class PairPartition:
    __slots__ = ("left", "right")

    def __init__(self, left: frozenset[int], right: frozenset[int]):
        self.left, self.right = left, right


def shrink_runs(x: Sequence[int]) -> list[int]:
    """Collapse every maximal run of equal letters to a single letter."""
    out: list[int] = []
    for s in x:
        if not out or out[-1] != s:
            out.append(s)
    return out


def pairing_partition(x: Sequence[int]) -> PairPartition:
    """Greedy vertex split of the adjacency multigraph: in first-occurrence
    order each letter goes left when ``2*to_right + to_unplaced >=
    2*from_left + from_unplaced`` over its out- and in-adjacencies, else
    right.  Left-right pairs then cover at least a quarter of the adjacent
    positions (selftest checks the bound)."""
    if len(x) < 2:
        raise ValueError("need |x| >= 2")
    if any(a == b for a, b in zip(x, x[1:])):
        raise ValueError("input must not contain unary runs")
    succ: dict[int, list[int]] = {v: [] for v in dict.fromkeys(x)}
    pred: dict[int, list[int]] = {v: [] for v in succ}
    for a, b in zip(x, x[1:]):
        succ[a].append(b)
        pred[b].append(a)
    # +1 left, -1 right, 0 not placed yet: an out-neighbour weighs 1 - side
    # (2 if right, 1 if unplaced) and an in-neighbour 1 + side
    side = dict.fromkeys(succ, 0)
    for v in succ:
        gain = sum(1 - side[b] for b in succ[v])
        side[v] = 1 if gain >= sum(1 + side[a] for a in pred[v]) else -1
    return PairPartition(frozenset(v for v in side if side[v] > 0),
                         frozenset(v for v in side if side[v] < 0))


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
