"""Per-position counts of distinct factors, read off the suffix tree in two
independent ways."""

from __future__ import annotations

from typing import Sequence

from .suffixtree import SuffixTree, suffix_tree


def dif_table_marking(tree: SuffixTree) -> list[int]:
    """Walk up from each suffix leaf in order, summing unmarked edge weights."""
    n = tree.n
    leaf_of = [0] * n
    for v, k in enumerate(tree.suffix_label):
        if k >= 0:
            leaf_of[k] = v
    marked = [False] * len(tree.parent)
    marked[0] = True
    dif = [0] * n
    for k in range(n):
        v = leaf_of[k]
        total = 0
        while not marked[v]:
            marked[v] = True
            total += tree.end[v] - tree.start[v]
            v = tree.parent[v]
        dif[k] = total
    return dif


def dif_table_minleaf(tree: SuffixTree) -> list[int]:
    """Charge each edge to the smallest suffix label below it."""
    n = tree.n
    min_leaf = [n] * len(tree.parent)
    label = tree.suffix_label
    for v in reversed(tree.order):
        if label[v] >= 0:
            min_leaf[v] = label[v]
        if v:
            p = tree.parent[v]
            if min_leaf[v] < min_leaf[p]:
                min_leaf[p] = min_leaf[v]
    dif = [0] * n
    for v in range(1, len(tree.parent)):
        dif[min_leaf[v]] += tree.end[v] - tree.start[v]
    return dif


def sub_table(word: Sequence[int]) -> tuple[list[int], list[int]]:
    """(Sub, dif) over the sentinel-terminated word: Sub[k] counts distinct
    non-empty factors with an occurrence starting at or before k."""
    tree = suffix_tree(word)
    dif = dif_table_marking(tree)
    sub = []
    acc = 0
    for d in dif:
        acc += d
        sub.append(acc)
    return sub, dif
