"""Straight-line programs: acyclic grammars with concat and power rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .words import SizeLimitError

TERM = "term"
CAT = "cat"
POW = "pow"

_EXPAND_MAX = 1 << 22


@dataclass(frozen=True)
class Slp:
    """Grammar producing one word; rules map id -> (kind, args...)."""

    rules: Mapping[int, tuple]
    start: int

    def __post_init__(self):
        _validate(self.rules, self.start)


def _validate(rules: Mapping[int, tuple], start: int) -> None:
    state: dict[int, int] = {}  # 0 = visiting, 1 = done

    def visit(node: int) -> None:
        stack = [(node, False)]
        while stack:
            v, done = stack.pop()
            if done:
                state[v] = 1
                continue
            if state.get(v) == 1:
                continue
            if state.get(v) == 0:
                raise ValueError(f"cycle through rule {v}")
            if v not in rules:
                raise ValueError(f"undefined rule {v}")
            state[v] = 0
            stack.append((v, True))
            rule = rules[v]
            if rule[0] == TERM:
                pass
            elif rule[0] == CAT:
                stack.extend((c, False) for c in rule[1:])
            elif rule[0] == POW:
                if rule[2] < 1:
                    raise ValueError("power exponent must be >= 1")
                stack.append((rule[1], False))
            else:
                raise ValueError(f"unknown rule kind {rule[0]!r}")

    visit(start)


class SlpBuilder:
    """Hash-consing builder; identical rules share an id."""

    def __init__(self):
        self.rules: dict[int, tuple] = {}
        self._ids: dict[tuple, int] = {}

    def _add(self, rule: tuple) -> int:
        got = self._ids.get(rule)
        if got is not None:
            return got
        nid = len(self.rules)
        self.rules[nid] = rule
        self._ids[rule] = nid
        return nid

    def term(self, symbol: int) -> int:
        return self._add((TERM, symbol))

    def cat(self, left: int, right: int) -> int:
        return self._add((CAT, left, right))

    def concat_all(self, parts: Sequence[int]) -> int:
        if not parts:
            raise ValueError("empty concatenation")
        node = parts[0]
        for p in parts[1:]:
            node = self.cat(node, p)
        return node

    def power(self, base: int, exponent: int) -> int:
        if exponent == 1:
            return base
        return self._add((POW, base, exponent))

    def build(self, start: int) -> Slp:
        return Slp(dict(self.rules), start)


def slp_size(g: Slp) -> int:
    return len(g.rules)


def slp_length(g: Slp) -> int:
    """Expanded length computed bottom-up without expansion."""
    memo: dict[int, int] = {}

    def length(v: int) -> int:
        stack = [v]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
                continue
            rule = g.rules[u]
            if rule[0] == TERM:
                memo[u] = 1
                stack.pop()
            elif rule[0] == CAT:
                missing = [c for c in rule[1:] if c not in memo]
                if missing:
                    stack.extend(missing)
                else:
                    memo[u] = memo[rule[1]] + memo[rule[2]]
                    stack.pop()
            else:
                if rule[1] in memo:
                    memo[u] = memo[rule[1]] * rule[2]
                    stack.pop()
                else:
                    stack.append(rule[1])
        return memo[v]

    return length(g.start)


def slp_expand(g: Slp) -> list[int]:
    """Expand to the produced word; refuses words longer than _EXPAND_MAX."""
    total = slp_length(g)
    if total > _EXPAND_MAX:
        raise SizeLimitError(f"expansion of length {total} exceeds limit {_EXPAND_MAX}")
    out: list[int] = []
    stack = [g.start]
    while stack:
        rule = g.rules[stack.pop()]
        if rule[0] == TERM:
            out.append(rule[1])
        elif rule[0] == CAT:
            stack.append(rule[2])
            stack.append(rule[1])
        else:
            stack.extend([rule[1]] * rule[2])
    return out


def strict_binary(g: Slp) -> Slp:
    """Rewrite every power rule into O(log exponent) binary concatenations."""
    b = SlpBuilder()
    memo: dict[int, int] = {}

    def convert(v: int) -> int:
        if v in memo:
            return memo[v]
        rule = g.rules[v]
        if rule[0] == TERM:
            nid = b.term(rule[1])
        elif rule[0] == CAT:
            nid = b.cat(convert(rule[1]), convert(rule[2]))
        else:
            base = convert(rule[1])
            e = rule[2]
            # square-and-multiply over concatenation
            acc = None
            sq = base
            while e:
                if e & 1:
                    acc = sq if acc is None else b.cat(acc, sq)
                e >>= 1
                if e:
                    sq = b.cat(sq, sq)
            nid = acc
        memo[v] = nid
        return nid

    # convert recurses once per rule on a path, so deep grammars run under a
    # recursion limit raised to fit the rule count
    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * len(g.rules) + 100))
    try:
        start = convert(g.start)
    finally:
        sys.setrecursionlimit(old)
    return b.build(start)
