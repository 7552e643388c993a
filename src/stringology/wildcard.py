"""Text index answering one-wildcard pattern queries in O(|pattern| + log n)
steps, once the node the hole lands on has its record (below).

Every internal suffix-tree node v has a side list: the sorted suffix ranks
of its light leaves, each shifted one symbol past depth(v).  A wildcard
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
``s + shift < n`` leaves it out, wherever the walk put it.

Building the index is the suffix tree and its leaf ranks only.  A node's
heavy edge and side list (``WildcardIndex.branch``) are built the first time
a hole lands on that node and kept: O(k log k) steps for its k light leaves,
paid once by the query that needs it, and at most the cost of building every
list up front over all nodes.  The root's list holds about n ranks, so the
first query that starts with a hole pays most.  ``node_count`` reads the
list sizes off the leaf counts and builds no record.

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
        # a query's locus u is the rank range [lo[u], hi[u])
        self.order, self.rank, self.lo, self.hi = self.tree.leaf_ranges()
        self.branches: dict[int, tuple[int, list[int]]] = {}  # built by branch(v)

    def branch(self, v: int) -> tuple[int, list[int]]:
        """(heavy symbol, side list) of the root or internal node v, built
        the first time it is asked for and kept in ``branches``.

        The heavy child has the most leaves, ties resolved toward the
        smaller edge symbol.  The side list is the sorted ranks of v's light
        leaves, each shifted one symbol past depth(v); a light leaf with
        s + shift == n is the empty suffix and is left out."""
        record = self.branches.get(v)
        if record is not None:
            return record
        tree, lo, hi = self.tree, self.lo, self.hi
        size = 0
        for sym, child in tree.children[v].items():
            leaves = hi[child] - lo[child]
            if leaves > size or leaves == size and sym < best:
                best, h, size = sym, child, leaves
        # v-to-leaf spells the suffix past depth(v); strip a letter.  The
        # heavy child's leaves are a block of v's leaves in walk order.
        n, rank, order, shift = tree.n, self.rank, self.order, tree.depth[v] + 1
        light = order[lo[v]:lo[h]] + order[hi[h]:hi[v]]
        side = sorted([rank[s + shift] for s in light if s + shift < n])
        record = self.branches[v] = (best, side)
        return record

    def node_count(self) -> int:
        """Tree nodes plus side-list entries, counted from leaf counts, so
        no record is built.  A node's list holds its leaves less the largest
        child's, less one when a light child is the leaf that hangs by the
        sentinel alone: its shifted suffix is empty.  The sentinel is the
        largest symbol and its edge leads to one leaf, so it is heavy only
        as a sole child (the root of the empty word)."""
        tree = self.tree
        children, sentinel = tree.children, tree.sentinel
        size = [b - a for a, b in zip(self.lo, self.hi)]  # leaves below each node
        leaves = size.__getitem__
        total = len(tree.parent)
        for v in (0, *range(tree.n + 1, len(children))):  # the root and the internal nodes
            kids = children[v]
            total += size[v] - max(map(leaves, kids.values()))
            total -= sentinel in kids and len(kids) > 1
        return total


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
    record = index.branches.get(v)
    if record is None:
        record = index.branch(v)
    heavy_sym, side = record
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
    r = bisect_left(side, index.lo[u])
    return r < len(side) and side[r] < index.hi[u]
