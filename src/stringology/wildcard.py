"""Text index answering one-wildcard pattern queries in O(|pattern|) steps.

Every internal suffix-tree node carries a side trie merging its light
subtrees with their first letters stripped; a wildcard consumed at that node
either follows the heavy edge or drops into the side trie.

The side tries are built from the suffix tree's leaf order, the
k-errata-trie construction of Cole, Gottlieb and Lewenstein ("Dictionary
matching and indexing with errors and don't cares", STOC 2004).  The light
leaves of node v are v's leaf range minus the heavy child's block, shifted by
depth(v) + 1 and sorted by rank; neighbouring suffixes share one range
minimum of the LCP array (a sparse table, freed after the build), and one
stack pass turns the sorted suffixes and their LCPs into the compacted trie.
No two suffixes are compared symbol by symbol, so the cost does not grow
with the long shared prefixes of Thue-Morse or Fibonacci words.  The heavy-path
argument still bounds the trie labels at O(n log n) in total.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .suffixtree import SuffixTree, suffix_tree
from .words import HOLE


def _range_min(values: list[int]) -> list[list[int]]:
    """Sparse table: ``rows[k][r]`` is the least of ``values[r:r + 2**k]``."""
    rows = [values]
    width = 1
    while 2 * width <= len(values):
        prev = rows[-1]
        rows.append(list(map(min, prev, prev[width:])))
        width *= 2
    return rows


class _Trie:
    """Compacted trie over spans of the host text, holding the suffixes
    ``text[s:]`` for s in ``starts`` (listed in suffix-array order) and the
    empty string when ``eps``.

    One stack pass over the sorted suffixes, as a suffix tree is built from
    a suffix array: the stack holds the path to the last leaf; pop the nodes
    deeper than the LCP with the previous suffix, split the last popped edge
    where the LCP ends, and hang the new leaf there.  That LCP is one range
    minimum over the text's LCP array, ``lcp_min`` from ``_range_min``."""

    def __init__(self, text: Sequence[int], eps: bool, starts: list[int],
                 rank: list[int], lcp_min: list[list[int]]):
        self.text = text
        self.children: list[dict[int, int]] = [{}]
        self.start: list[int] = [0]
        self.end: list[int] = [0]
        self.eps = eps
        n = len(text)
        children, start, end = self.children, self.start, self.end
        path, depths = [0], [0]
        prev = -1
        for s in starts:
            r = rank[s]
            lcp = 0
            if prev >= 0:
                k = (r - prev).bit_length() - 1
                row = lcp_min[k]
                a, b = row[prev], row[r - (1 << k)]
                lcp = a if a < b else b
            prev = r
            while depths[-1] > lcp:
                last = path.pop()
                depths.pop()
            top = path[-1]
            if depths[-1] < lcp:  # the new leaf branches off inside last's edge
                s0 = start[last]
                cut = s0 + lcp - depths[-1]
                mid = len(start)
                children.append({text[cut]: last})
                start.append(s0)
                end.append(cut)
                children[top][text[s0]] = mid
                start[last] = cut
                path.append(mid)
                depths.append(lcp)
                top = mid
            leaf = len(start)
            children[top][text[s + lcp]] = leaf
            children.append({})
            start.append(s + lcp)
            end.append(n)
            path.append(leaf)
            depths.append(n - s)

    def node_count(self) -> int:
        return len(self.start)

    def strings(self) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        if self.eps:
            out.add(())
        stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        while stack:
            v, pref = stack.pop()
            if v:
                pref = pref + tuple(self.text[self.start[v]:self.end[v]])
                if not self.children[v]:
                    out.add(pref)
            for c in self.children[v].values():
                stack.append((c, pref))
        return out

    def matches_prefix(self, pat: Sequence[int]) -> bool:
        v = 0
        i = 0
        while i < len(pat):
            child = self.children[v].get(pat[i])
            if child is None:
                return False
            s, e = self.start[child], self.end[child]
            j = 0
            while j < e - s and i + j < len(pat):
                if self.text[s + j] != pat[i + j]:
                    return False
                j += 1
            i += j
            v = child
        return True


class WildcardIndex:
    def __init__(self, word: Iterable[int]):
        word = list(word)  # read once: the hole check must not use up an iterator
        if any(s == HOLE for s in word):
            raise ValueError("text must not contain holes")
        self.tree: SuffixTree = suffix_tree(word)
        tree = self.tree
        sa, rank, lo, hi, lcp = tree.lexicographic()
        lcp_min = _range_min(lcp)
        self.heavy: dict[int, int] = {}
        self.side: dict[int, _Trie] = {}
        for v in tree.order:
            kids = tree.children[v]
            if not kids:
                continue
            size = 0
            for sym in sorted(kids):  # ties resolved toward the smaller edge symbol
                child = kids[sym]
                if hi[child] - lo[child] > size:
                    best, h, size = sym, child, hi[child] - lo[child]
            self.heavy[v] = best
            # v-to-leaf spells the suffix past depth(v); strip a letter.  The
            # heavy child's leaves are a block of v's leaves in suffix order.
            shift = tree.depth[v] + 1
            starts = [s + shift for s in sa[lo[v]:lo[h]] + sa[hi[h]:hi[v]]]
            # the sentinel child, when light, is v's last leaf: the empty string
            eps = bool(starts) and starts[-1] == tree.n
            if eps:
                starts.pop()
            starts.sort(key=rank.__getitem__)
            self.side[v] = _Trie(tree.text, eps, starts, rank, lcp_min)

    def node_count(self) -> int:
        return len(self.tree.parent) + sum(t.node_count() for t in self.side.values())


def wildcard_index(word: Iterable[int]) -> WildcardIndex:
    return WildcardIndex(word)


def _descend_exact(tree: SuffixTree, node: int, offset: int,
                   pat: Sequence[int]) -> tuple[int, int] | None:
    """Continue an exact descent from the locus (node, symbols left on its
    incoming edge); return the locus reached, or None if pat leaves the tree."""
    v, off = node, offset
    for c in pat:
        if off == 0:
            child = tree.children[v].get(c)
            if child is None:
                return None
            v = child
            off = tree.end[v] - tree.start[v] - 1
        elif tree.text[tree.end[v] - off] == c:
            off -= 1
        else:
            return None
    return v, off


def wildcard_search(index: WildcardIndex, pattern: Sequence[int]) -> bool:
    """Does the pattern (at most one hole) occur in the indexed word?"""
    holes = [i for i, c in enumerate(pattern) if c == HOLE]
    if len(holes) > 1:
        raise ValueError("at most one hole supported")
    if not pattern:
        return True
    if min(pattern) < HOLE:  # HOLE is -1, the one negative symbol with a meaning
        raise ValueError("pattern symbols must be non-negative or HOLE")
    tree = index.tree
    if max(pattern) >= tree.sentinel:
        return False  # out-of-alphabet symbols never occur in the text
    if not holes:
        return _descend_exact(tree, 0, 0, pattern) is not None
    h = holes[0]
    locus = _descend_exact(tree, 0, 0, pattern[:h])  # exact part before the hole
    if locus is None:
        return False
    v, off = locus
    rest = pattern[h + 1:]
    if off > 0:
        # mid-edge: the hole must match the single next edge symbol
        sym = tree.text[tree.end[v] - off]
        if sym == tree.sentinel:
            return False
        return _descend_exact(tree, v, off - 1, rest) is not None
    # at a node: heavy branch plus the merged light branch
    heavy_sym = index.heavy.get(v)
    if heavy_sym is not None and heavy_sym != tree.sentinel:
        child = tree.children[v][heavy_sym]
        if _descend_exact(tree, child, tree.end[child] - tree.start[child] - 1, rest) is not None:
            return True
    trie = index.side.get(v)
    if trie is None:
        return False
    if not rest:
        return any(sym != tree.sentinel for sym in tree.children[v] if sym != heavy_sym)
    return trie.matches_prefix(rest)
