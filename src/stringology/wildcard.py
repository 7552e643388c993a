"""Text index answering one-wildcard pattern queries in O(|pattern|) steps.

Every internal suffix-tree node carries a side trie merging its light
subtrees with their first letters stripped; a wildcard consumed at that node
either follows the heavy edge or drops into the side trie.
"""

from __future__ import annotations

from typing import Sequence

from .suffixtree import SuffixTree, suffix_tree
from .words import HOLE


class _Trie:
    """Compacted trie over spans of the host text."""

    def __init__(self, text: Sequence[int]):
        self.text = text
        self.children: list[dict[int, int]] = [{}]
        self.start: list[int] = [0]
        self.end: list[int] = [0]
        self.eps = False  # the empty string was inserted

    def node_count(self) -> int:
        return len(self.start)

    def insert(self, start: int, end: int) -> None:
        if start >= end:
            self.eps = True
            return
        text = self.text
        v = 0
        i = start
        while True:
            child = self.children[v].get(text[i])
            if child is None:
                self.children[v][text[i]] = self._new(i, end)
                return
            s, e = self.start[child], self.end[child]
            j = 0
            while j < e - s and i + j < end and text[s + j] == text[i + j]:
                j += 1
            if j == e - s:
                v = child
                i += j
                if i == end:
                    return  # existing path already spells the string
                continue
            if i + j == end:
                # split so the inserted string ends at a node
                mid = self._new(s, s + j)
                self.children[v][text[s]] = mid
                self.start[child] = s + j
                self.children[mid][text[s + j]] = child
                return
            mid = self._new(s, s + j)
            self.children[v][text[s]] = mid
            self.start[child] = s + j
            self.children[mid][text[s + j]] = child
            self.children[mid][text[i + j]] = self._new(i + j, end)
            return

    def _new(self, start: int, end: int) -> int:
        self.children.append({})
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

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
    def __init__(self, word: Sequence[int]):
        if any(s == HOLE for s in word):
            raise ValueError("text must not contain holes")
        self.tree: SuffixTree = suffix_tree(word)
        tree = self.tree
        leaf_count = [0] * len(tree.parent)
        for v in reversed(tree.order):
            if tree.is_leaf(v):
                leaf_count[v] = 1
            if v:
                leaf_count[tree.parent[v]] += leaf_count[v]
        self.heavy: dict[int, int] = {}
        self.side: dict[int, _Trie] = {}
        for v in tree.order:
            kids = tree.children[v]
            if not kids:
                continue
            best = max(
                sorted(kids),  # ties resolved toward the smaller edge symbol
                key=lambda sym: leaf_count[kids[sym]],
            )
            self.heavy[v] = best
            trie = _Trie(tree.text)
            for sym, child in kids.items():
                if sym == best:
                    continue
                for label in tree.leaves_below(child):
                    # v-to-leaf spells the suffix past depth(v); strip a letter
                    trie.insert(label + tree.depth[v] + 1, tree.n)
            self.side[v] = trie

    def node_count(self) -> int:
        return len(self.tree.parent) + sum(t.node_count() for t in self.side.values())


def wildcard_index(word: Sequence[int]) -> WildcardIndex:
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
    tree = index.tree
    if any(c >= tree.sentinel for c in pattern if c != HOLE):
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
