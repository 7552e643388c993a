"""Text index answering one-wildcard pattern queries in O(|pattern| + log n)
steps.

Every internal suffix-tree node v carries a side list: the sorted suffix
ranks of its light leaves, each shifted one symbol past depth(v).  A wildcard
consumed at v either follows the heavy edge, or the rest of the pattern must
begin one of those shifted suffixes.  The suffixes that begin with the rest
are the leaf range [lo(u), hi(u)) of its locus u, found by an exact descent
from the root, so one binary search in v's list answers the query.

The light/heavy split is the heavy-path decomposition of Cole, Gottlieb and
Lewenstein ("Dictionary matching and indexing with errors and don't cares",
STOC 2004): a leaf lies below O(log n) light edges, so the lists hold
O(n log n) ranks in total.  Answering "does this string start one of these
suffixes" with a rank range is the approach of Amir, Keselman, Landau,
Lewenstein, Lewenstein and Rodeh ("Text indexing and dictionary matching
with one error", J. Algorithms 2000).  A rank is a leaf's place in one
depth-first walk of the suffix tree with children in insertion order
(``SuffixTree.leaf_ranges``), not in symbol order: the query needs only that
the leaves below each node hold one block of ranks, which any depth-first
walk gives.  No two suffixes are compared symbol by symbol, so the build
does not slow down on the long shared prefixes of Thue-Morse or Fibonacci
words.  A light leaf whose shifted start is n, the sentinel leaf of v, would
stand for the empty suffix; no pattern rest begins it, so the filter
``s + shift < n`` leaves it out, wherever the walk put it.  A node with one
light leaf gets that leaf's rank as its list with no slice or sort; on a
unary word every node takes that path.
A query reads the tree's arrays into locals once per descent, so each
pattern symbol costs one child lookup or one text read.

Before it descends, a query checks its pattern in this order: at most one
hole, then no negative symbol other than the hole, then the alphabet.  The
index keeps the set of the text's symbols and the hole, so the common case
(every symbol in that set) is one C-level ``issuperset`` call; only a pattern
that fails it is scanned again, for a negative symbol (an error) or else a
symbol the text lacks (no occurrence).  The sentinel is max(text) + 1, never
a text symbol, so a pattern holding it fails the set test like any other
absent symbol and needs no test of its own.
"""

from __future__ import annotations

from bisect import bisect_left

from .suffixtree import suffix_tree
from .words import HOLE

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

    from .suffixtree import SuffixTree


class WildcardIndex:
    def __init__(self, word: Iterable[int]):
        word = list(word)  # read once: the hole check must not use up an iterator
        if HOLE in word:
            raise ValueError("text must not contain holes")
        self.symbols = frozenset(word) | {HOLE}  # what a pattern may hold and still occur
        self.tree: SuffixTree = suffix_tree(word)
        tree = self.tree
        n, depth, children = tree.n, tree.depth, tree.children
        order, rank, lo, hi = tree.leaf_ranges()
        self.lo, self.hi = lo, hi  # a query's locus u is the rank range [lo[u], hi[u])
        self.heavy: dict[int, int] = {}
        self.side: dict[int, list[int]] = {}
        heavy, side = self.heavy, self.side
        for v in (0, *range(n + 1, len(children))):  # the root and the internal nodes
            size = 0
            for sym, child in children[v].items():  # ties resolved toward the smaller edge symbol
                leaves = hi[child] - lo[child]
                if leaves > size or leaves == size and sym < best:
                    best, h, size = sym, child, leaves
            heavy[v] = best
            # v-to-leaf spells the suffix past depth(v); strip a letter.  The
            # heavy child's leaves are a block of v's leaves in walk order.
            # A light leaf with s + shift == n is the empty suffix: left out.
            shift = depth[v] + 1
            a, b, c, d = lo[v], lo[h], hi[h], hi[v]
            if b - a + d - c == 1:  # a lone light leaf: one rank, nothing to sort
                s = order[a] if a < b else order[c]
                side[v] = [rank[s + shift]] if s + shift < n else []
                continue
            light = order[a:b] + order[c:d]
            side[v] = sorted([rank[s + shift] for s in light if s + shift < n])

    def node_count(self) -> int:
        return len(self.tree.parent) + sum(map(len, self.side.values()))


def wildcard_index(word: Iterable[int]) -> WildcardIndex:
    return WildcardIndex(word)


def _descend_exact(tree: SuffixTree, node: int, offset: int,
                   pat: Sequence[int]) -> tuple[int, int] | None:
    """Continue an exact descent from the locus (node, symbols left on its
    incoming edge); return the locus reached, or None if pat leaves the tree.
    One child lookup or one text read per symbol, on arrays held in locals."""
    children, start, end, text = tree.children, tree.start, tree.end, tree.text
    v, off = node, offset
    for c in pat:
        if off == 0:
            v = children[v].get(c)
            if v is None:
                return None
            off = end[v] - start[v] - 1
        elif text[end[v] - off] == c:
            off -= 1
        else:
            return None
    return v, off


def wildcard_search(index: WildcardIndex, pattern: Sequence[int]) -> bool:
    """Does the pattern (at most one hole) occur in the indexed word?

    Checks, in order: more than one hole raises ValueError; the empty
    pattern occurs; a pattern inside ``index.symbols`` goes on to the
    descent.  Otherwise a negative symbol other than HOLE raises ValueError
    and any other symbol, the sentinel value included, is one the text
    lacks, so the answer is False."""
    holes = pattern.count(HOLE)
    if holes > 1:
        raise ValueError("at most one hole supported")
    if not pattern:
        return True
    if not index.symbols.issuperset(pattern):
        if min(pattern) < HOLE:  # HOLE is -1, the one negative symbol with a meaning
            raise ValueError("pattern symbols must be non-negative or HOLE")
        return False  # a symbol the text lacks never occurs
    tree = index.tree
    if not holes:
        return _descend_exact(tree, 0, 0, pattern) is not None
    h = pattern.index(HOLE)
    if h:
        locus = _descend_exact(tree, 0, 0, pattern[:h])  # exact part before the hole
        if locus is None:
            return False
        v, off = locus
    else:  # the hole comes first: start at the root
        v, off = 0, 0
    rest = pattern[h + 1:]
    if off > 0:
        # mid-edge: the hole must match the single next edge symbol
        sym = tree.text[tree.end[v] - off]
        if sym == tree.sentinel:
            return False
        return _descend_exact(tree, v, off - 1, rest) is not None
    # at a node: the heavy branch, else a light leaf shifted past the hole
    heavy_sym = index.heavy[v]
    if heavy_sym != tree.sentinel:
        child = tree.children[v][heavy_sym]
        if _descend_exact(tree, child, tree.end[child] - tree.start[child] - 1, rest) is not None:
            return True
    if not rest:
        return any(sym != tree.sentinel for sym in tree.children[v] if sym != heavy_sym)
    locus = _descend_exact(tree, 0, 0, rest)
    if locus is None:
        return False
    u = locus[0]
    side = index.side[v]
    r = bisect_left(side, index.lo[u])
    return r < len(side) and side[r] < index.hi[u]
