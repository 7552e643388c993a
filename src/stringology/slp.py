"""Straight-line programs: acyclic grammars with concat and power rules.

Every grammar carries ``order``, the rules reachable from ``start`` with
each rule after the rules it refers to and a left child before a right one:
the post-order of a left-first walk from ``start``, which comes last.
Lengths and the strict-binary rewrite are single forward passes over that
order, so nothing here recurses, however deep the grammar.
"""

from __future__ import annotations

from .words import SizeLimitError

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Mapping, Sequence

TERM = "term"
CAT = "cat"
POW = "pow"

_EXPAND_MAX = 1 << 22


class Slp:
    """Grammar producing one word; rules map id -> (kind, args...).  Compared
    and printed by rules and start, which fix order; not hashable."""

    __slots__ = ("rules", "start", "order")

    def __init__(self, rules: Mapping[int, tuple], start: int):
        self.rules, self.start = rules, start
        self.order = _children_first(rules, start)

    def __eq__(self, other):
        if type(other) is not Slp:
            return NotImplemented
        return (self.rules, self.start) == (other.rules, other.start)

    def __repr__(self):
        return f"Slp(rules={self.rules!r}, start={self.start!r})"


def _children_first(rules: Mapping[int, tuple], start: int) -> tuple[int, ...]:
    """Check the rules reachable from start and list them children first."""
    state: dict[int, int] = {}  # 0 = visiting, 1 = done
    order: list[int] = []
    stack = [(start, False)]
    while stack:
        v, done = stack.pop()
        if done:
            state[v] = 1
            order.append(v)
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
        if rule[0] not in (TERM, CAT, POW):
            raise ValueError(f"unknown rule kind {rule[0]!r}")
        if len(rule) != (2 if rule[0] == TERM else 3):
            raise ValueError(f"rule {v} has {len(rule) - 1} arguments")
        if rule[0] == CAT:
            stack.append((rule[2], False))
            stack.append((rule[1], False))
        elif rule[0] == POW:
            if rule[2] < 1:
                raise ValueError("power exponent must be >= 1")
            stack.append((rule[1], False))
    return tuple(order)


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


def rule_lengths(g: Slp) -> dict[int, int]:
    """Expanded length of every rule in g.order, without expansion."""
    length: dict[int, int] = {}
    for v in g.order:
        rule = g.rules[v]
        if rule[0] == TERM:
            length[v] = 1
        elif rule[0] == CAT:
            length[v] = length[rule[1]] + length[rule[2]]
        else:
            length[v] = length[rule[1]] * rule[2]
    return length


def slp_length(g: Slp) -> int:
    """Expanded length computed bottom-up without expansion."""
    return rule_lengths(g)[g.start]


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
    nid: dict[int, int] = {}
    for v in g.order:
        rule = g.rules[v]
        if rule[0] == TERM:
            nid[v] = b.term(rule[1])
        elif rule[0] == CAT:
            nid[v] = b.cat(nid[rule[1]], nid[rule[2]])
        else:
            # square-and-multiply over concatenation
            e = rule[2]
            acc = None
            sq = nid[rule[1]]
            while e:
                if e & 1:
                    acc = sq if acc is None else b.cat(acc, sq)
                e >>= 1
                if e:
                    sq = b.cat(sq, sq)
            nid[v] = acc
    return b.build(nid[g.start])
