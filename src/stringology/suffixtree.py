"""Compacted suffix trees over integer words with an appended sentinel.

Construction is one pass of Ukkonen's on-line algorithm (Ukkonen, "On-line
construction of suffix trees", Algorithmica 1995).  The n leaves exist before
the loop starts: the leaf of suffix j is node j + 1, and its end, string
depth and label are known from j alone, so hanging it sets only its parent
and start.  Internal nodes are appended as the loop splits edges; nothing is
sorted.  ``oracles.suffix_tree_shape`` builds the same tree by grouping
suffixes; the selftest compares the two.
``SuffixTree.leaf_ranges`` numbers the leaves in one depth-first walk, so the
leaves below any node take one block of numbers; ``oracles.suffix_array``
sorts the suffixes instead.
"""

from __future__ import annotations

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Sequence

# The children of every leaf: one shared empty mapping that refuses writes.
# type(type.__dict__) is types.MappingProxyType, without importing types.
_NO_CHILDREN = type(type.__dict__)({})


class SuffixTree:
    """Arrays per node: parent, edge span [start, end) into text, string
    depth, children keyed by first symbol, and the suffix label on leaves
    (-1 on the root and internal nodes).  Node 0 is the root, the leaf of
    suffix j is node j + 1, and the internal nodes follow from n + 1 in the
    order Ukkonen's loop makes them.  A parent is strictly shallower than
    each of its children.  Every leaf shares one read-only empty
    ``children`` mapping."""

    def __init__(self, word: Sequence[int]):
        base = list(word)
        if base and min(base) < 0:
            raise ValueError("symbols must be non-negative")
        self.sentinel = (max(base) + 1) if base else 0
        self.text = text = base + [self.sentinel]
        self.n = n = len(text)
        # the root, then the leaf of suffix j at j + 1; parent and start are
        # filled in when the loop hangs the leaf
        self.parent = parent = [-1] * (n + 1)
        self.start = start = [0] * (n + 1)
        self.end = end = [0] + [n] * n
        self.children = children = [{}] + [_NO_CHILDREN] * n
        self.depth = depth = [0, *range(n, 0, -1)]
        self.suffix_label = label = [-1, *range(n)]
        # Ukkonen's loop.  Leaf edges end at n from the start: the active
        # point never reaches past the current position, so no edge is read
        # beyond it.
        slink = [0] * (2 * n + 1)  # the root, n leaves and at most n internal nodes
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
                if nxt is None:  # hang the leaf of the suffix j = i - remainder + 1
                    leaf = i - remainder + 2
                    kids[first] = leaf
                    parent[leaf] = act_node
                    start[leaf] = i
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
                    # split the edge act_len symbols in; hang the leaf of j
                    leaf = i - remainder + 2
                    mid = len(parent)
                    kids[first] = mid
                    start[nxt] = cut
                    parent[nxt] = mid
                    parent.append(act_node)
                    start.append(s)
                    end.append(cut)
                    children.append({text[cut]: nxt, c: leaf})
                    depth.append(depth[act_node] + act_len)
                    label.append(-1)
                    parent[leaf] = mid
                    start[leaf] = i
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

    def factor_count(self) -> int:
        """The number of distinct non-empty factors of the word: the total
        edge length, less the sentinel that ends each of the n leaf edges."""
        return sum(self.end) - sum(self.start) - self.n

    def leaf_ranges(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """(order, rank, lo, hi): the suffixes numbered in one depth-first
        walk of the tree, children in insertion order, not symbol order.

        ``order[r]`` is the suffix of the r-th leaf visited and ``rank`` its
        inverse; node v has the leaves ``order[lo[v]:hi[v]]`` below it, one
        block because a walk finishes a subtree before it leaves it.  Each
        internal node on the current path keeps one iterator over its
        children on the stack; a leaf child (id at most n) is numbered where
        the iterator reaches it, never pushed."""
        children, n = self.children, self.n
        lo = [0] * len(children)
        hi = [0] * len(children)
        order = [0] * n
        rank = [0] * n
        r = 0  # leaves visited so far
        path = [0]  # the root is never a leaf
        stack = [iter(children[0].values())]  # one iterator per node on path
        while stack:
            for c in stack[-1]:
                lo[c] = r
                if c > n:  # descend; the parent's iterator resumes once c is done
                    path.append(c)
                    stack.append(iter(children[c].values()))
                    break
                order[r] = c - 1
                rank[c - 1] = r
                r += 1
                hi[c] = r
            else:  # every node below the top of path has been visited
                stack.pop()
                hi[path.pop()] = r
        return order, rank, lo, hi


def suffix_tree(word: Sequence[int]) -> SuffixTree:
    return SuffixTree(word)
