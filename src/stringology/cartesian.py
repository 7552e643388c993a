"""Cartesian trees, parent-distance serialization, and pattern matching of
factors sharing the same tree shape."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class CartesianTree:
    root: int
    left: list[int]   # child position or -1
    right: list[int]
    pushes: int = field(default=0)
    pops: int = field(default=0)


def cartesian_tree(x: Sequence[int]) -> CartesianTree:
    """Online stack construction; the stack is the rightmost path.  Ties keep
    the leftmost minimum on top (strictly larger elements are popped)."""
    n = len(x)
    left = [-1] * n
    right = [-1] * n
    stack: list[int] = []
    pushes = pops = 0
    for i in range(n):
        last = -1
        while stack and x[stack[-1]] > x[i]:
            last = stack.pop()
            pops += 1
        if last != -1:
            left[i] = last
        if stack:
            right[stack[-1]] = i
        stack.append(i)
        pushes += 1
    root = stack[0] if stack else -1
    return CartesianTree(root, left, right, pushes, pops)


def cartesian_tree_recursive(x: Sequence[int]) -> CartesianTree:
    """Divide-and-conquer oracle: root at the leftmost minimum."""
    n = len(x)
    left = [-1] * n
    right = [-1] * n

    def build(lo: int, hi: int) -> int:
        if lo >= hi:
            return -1
        m = min(range(lo, hi), key=lambda i: (x[i], i))
        left[m] = build(lo, m)
        right[m] = build(m + 1, hi)
        return m

    return CartesianTree(build(0, n), left, right)


def trees_equal(a: CartesianTree, b: CartesianTree) -> bool:
    """Structural equality by simultaneous traversal."""
    stack = [(a.root, b.root)]
    while stack:
        u, v = stack.pop()
        if (u == -1) != (v == -1):
            return False
        if u == -1:
            continue
        stack.append((a.left[u], b.left[v]))
        stack.append((a.right[u], b.right[v]))
    return True


# ----------------------------------------------------------- parent distance


def parent_distance(w: Sequence[int]) -> list[int]:
    """PD[i] = distance back to the nearest j < i with w[j] <= w[i], else 0."""
    pd = [0] * len(w)
    stack: list[int] = []
    for i, v in enumerate(w):
        while stack and w[stack[-1]] > v:
            stack.pop()
        pd[i] = i - stack[-1] if stack else 0
        stack.append(i)
    return pd


def pd_window(pd: Sequence[int], i: int, j: int) -> list[int]:
    """Parent-distance of w[i..j] without rescanning the word."""
    if not 0 <= i <= j < len(pd):
        raise ValueError("bad window")
    out = []
    for t in range(j - i + 1):
        d = pd[i + t]
        out.append(d if 0 < d <= t else 0)
    return out


def _pd_clip(d: int, t: int) -> int:
    return d if 0 < d <= t else 0


def ct_border(x: Sequence[int]) -> list[int]:
    """Failure table over Cartesian-tree equality of prefixes and windows."""
    if not x:
        raise ValueError("need a non-empty word")
    pd = parent_distance(x)
    m = len(x)
    bord = [-1] * m
    for i in range(1, m):
        k = bord[i - 1]
        while k >= 0 and _pd_clip(pd[i], k + 1) != pd[k + 1]:
            k = bord[k]
        bord[i] = k + 1
    return bord


def ct_match(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Positions j - |x| + 1 of y-windows whose Cartesian tree equals x's."""
    if not x:
        raise ValueError("need a non-empty pattern")
    pdx = parent_distance(x)
    bord = ct_border(x)
    m = len(x)
    out: list[int] = []
    q: deque[tuple[int, int]] = deque()  # (value, position): window right path
    i = -1  # matched prefix length minus one
    for j, val in enumerate(y):
        while q and q[-1][0] > val:
            q.pop()
        # parent distance of the window's last element, given the deque
        while i > -1:
            d = j - q[-1][1] if q else 0
            if _pd_clip(d, i + 1) == pdx[i + 1]:
                break
            i = bord[i]
            while q and q[0][1] < j - i - 1:
                q.popleft()
        q.append((val, j))
        i += 1
        if i == m - 1:
            out.append(j - m + 1)
            i = bord[i]
            while q and q[0][1] < j - i:
                q.popleft()
    return out


def ct_match_naive(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Window-by-window oracle using the recursive tree construction."""
    m = len(x)
    pat = cartesian_tree_recursive(x)
    out = []
    for p in range(len(y) - m + 1):
        win = cartesian_tree_recursive(y[p:p + m])
        if trees_equal(pat, win):
            out.append(p)
    return out
