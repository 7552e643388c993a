"""Per-position counts of distinct factors, read off the suffix tree in two
independent ways; ``sub_table`` takes the marking walk, which sorts nothing."""

from __future__ import annotations

from itertools import accumulate

from .suffixtree import suffix_tree

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Sequence

    from .suffixtree import SuffixTree


def dif_table_marking(tree: SuffixTree) -> list[int]:
    """Walk up from each suffix leaf in order (suffix k's leaf is node
    k + 1), marking nodes, to the first node already marked: suffix k's new
    factors are the n - k symbols on its path less that node's depth."""
    n = tree.n
    parent, depth = tree.parent, tree.depth
    marked = [False] * len(parent)
    marked[0] = True
    dif = [0] * n
    for k in range(n):
        v = k + 1
        while not marked[v]:
            marked[v] = True
            v = parent[v]
        dif[k] = n - k - depth[v]
    return dif


def dif_table_minleaf(tree: SuffixTree) -> list[int]:
    """Charge each edge to the smallest suffix label below it, sorting the
    nodes by depth here: a parent is shallower than its children, so the
    deepest first pass settles each node before its parent reads it."""
    parent = tree.parent
    min_leaf = [k if k >= 0 else tree.n for k in tree.suffix_label]
    for v in sorted(range(1, len(parent)), key=tree.depth.__getitem__, reverse=True):
        p = parent[v]
        if min_leaf[v] < min_leaf[p]:
            min_leaf[p] = min_leaf[v]
    dif = [0] * tree.n
    for v in range(1, len(parent)):
        dif[min_leaf[v]] += tree.end[v] - tree.start[v]
    return dif


def sub_table(word: Sequence[int]) -> tuple[list[int], list[int]]:
    """(Sub, dif) over the sentinel-terminated word: Sub[k] counts distinct
    non-empty factors with an occurrence starting at or before k."""
    tree = suffix_tree(word)
    dif = dif_table_marking(tree)
    return list(accumulate(dif)), dif
