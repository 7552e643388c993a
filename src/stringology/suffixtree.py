"""Compacted suffix trees over integer words with an appended sentinel.

Construction is one pass of Ukkonen's on-line algorithm (Ukkonen, "On-line
construction of suffix trees", Algorithmica 1995) that records each node's
string depth and leaf label as the node is made; nothing is sorted.
``oracles.suffix_tree_shape`` builds the same tree by grouping suffixes; the
selftest compares the two.
``SuffixTree.lexicographic`` reads the suffix array, its inverse and each
node's leaf range off the tree on demand; ``oracles.suffix_array`` sorts the
suffixes instead.
"""

from __future__ import annotations

from collections.abc import Sequence


class SuffixTree:
    """Arrays per node: parent, edge span [start, end) into text, string
    depth, children keyed by first symbol, and the suffix label on leaves
    (-1 on the root and internal nodes), all filled in by one pass of
    Ukkonen's loop.  Node ids follow creation order, the root 0; a parent
    is strictly shallower than each of its children."""

    def __init__(self, word: Sequence[int]):
        base = list(word)
        if base and min(base) < 0:
            raise ValueError("symbols must be non-negative")
        self.sentinel = (max(base) + 1) if base else 0
        self.text = text = base + [self.sentinel]
        self.n = n = len(text)
        self.parent: list[int] = [-1]
        self.start: list[int] = [0]
        self.end: list[int] = [0]
        self.children: list[dict[int, int]] = [{}]
        self.depth: list[int] = [0]
        self.suffix_label: list[int] = [-1]
        parent, start, end, children = self.parent, self.start, self.end, self.children
        depth, label = self.depth, self.suffix_label
        # Ukkonen's loop.  Leaf edges end at n from the start: the active
        # point never reaches past the current position, so no edge is read
        # beyond it.
        slink = [0] * (2 * n)  # at most n leaves and n internal nodes
        act_node, act_edge, act_len = 0, 0, 0
        remainder = 0
        for i, c in enumerate(text):
            remainder += 1
            last_internal = 0
            while remainder:
                if act_len == 0:
                    act_edge = i
                first = text[act_edge]
                kids = children[act_node]
                nxt = kids.get(first)
                if nxt is None:  # a new leaf for the suffix j
                    j = i - remainder + 1
                    kids[first] = len(parent)
                    parent.append(act_node)
                    start.append(i)
                    end.append(n)
                    children.append({})
                    depth.append(n - j)
                    label.append(j)
                    if last_internal:
                        slink[last_internal] = act_node
                        last_internal = 0
                else:
                    s = start[nxt]
                    edge_len = end[nxt] - s
                    if act_len >= edge_len:
                        act_node = nxt
                        act_edge += edge_len
                        act_len -= edge_len
                        continue
                    cut = s + act_len
                    if text[cut] == c:
                        act_len += 1
                        if last_internal:
                            slink[last_internal] = act_node
                        break
                    # split the edge act_len symbols in; hang the leaf for j
                    j = i - remainder + 1
                    mid = len(parent)
                    kids[first] = mid
                    start[nxt] = cut
                    parent[nxt] = mid
                    parent.append(act_node)
                    start.append(s)
                    end.append(cut)
                    children.append({text[cut]: nxt, c: mid + 1})
                    depth.append(depth[act_node] + act_len)
                    label.append(-1)
                    parent.append(mid)
                    start.append(i)
                    end.append(n)
                    children.append({})
                    depth.append(n - j)
                    label.append(j)
                    if last_internal:
                        slink[last_internal] = mid
                    last_internal = mid
                remainder -= 1
                if act_node == 0 and act_len:
                    act_len -= 1
                    act_edge = i - remainder + 1
                else:
                    act_node = slink[act_node]

    def is_leaf(self, v: int) -> bool:
        return self.suffix_label[v] >= 0

    def lexicographic(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """(sa, rank, lo, hi): the leaves in symbol order, the sentinel largest.

        ``sa[r]`` is the r-th smallest suffix of text and ``rank`` its inverse;
        node v has the leaves ``sa[lo[v]:hi[v]]`` below it.  One preorder
        visits children in symbol order: each internal node keeps one iterator
        over its sorted children on the stack, and a leaf child is ranked where
        the iterator reaches it, never pushed."""
        children, label = self.children, self.suffix_label
        lo = [0] * len(label)
        hi = [0] * len(label)
        sa = [0] * self.n
        rank = [0] * self.n
        r = 0  # leaves visited so far
        path = [0]  # the root is never a leaf
        stack = [iter(sorted(children[0].items()))]  # one iterator per node on path
        while stack:
            for _, c in stack[-1]:
                lo[c] = r
                s = label[c]
                if s < 0:  # descend; the parent's iterator resumes once c is done
                    path.append(c)
                    stack.append(iter(sorted(children[c].items())))
                    break
                sa[r] = s
                rank[s] = r
                r += 1
                hi[c] = r
            else:  # every node below the top of path has been visited
                stack.pop()
                hi[path.pop()] = r
        return sa, rank, lo, hi


def suffix_tree(word: Sequence[int]) -> SuffixTree:
    return SuffixTree(word)
