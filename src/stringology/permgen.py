"""Compressed generating sequences for permutation algorithms.

Five families share one shape: the sequence of basic operations driving the
n-th generator is defined from the (n-1)-th by concatenation, powers and
letter morphisms, so each fits in a straight-line program.

Operation semantics per kind:
  zaks     letter i reverses the prefix of length i+1
  knuthC   letter k reverses the prefix of length k and moves it to the end
  heap     letter encodes a transposition <i, j>
  ehrlich  letter i swaps positions 0 and i (star transposition)
  stj      letter i swaps adjacent positions i and i+1
"""

from __future__ import annotations

from .slp import Slp, SlpBuilder, rule_lengths, slp_expand
from .words import SizeLimitError

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence

KINDS = ("zaks", "knuthC", "heap", "ehrlich", "stj")

_GRAMMAR_MAX = 20
_EHRLICH_GRAMMAR_MAX = 10
_RUN_MAX = 9


def heap_op(i: int, j: int, n: int) -> int:
    """Encode the transposition <i, j> as a single symbol."""
    return i * n + j


def heap_op_decode(symbol: int, n: int) -> tuple[int, int]:
    return divmod(symbol, n)


# ------------------------------------------------------------ SLP builders


def _zaks_slp(n: int) -> Slp:
    b = SlpBuilder()
    node = b.term(1)
    for t in range(2, n):
        node = b.cat(node, b.power(b.cat(b.term(t), node), t))
    return b.build(node)


def _knuth_slp(n: int) -> Slp:
    # unroll M_n = P(2, 1) . prod_{t=2..n-2} P(t+1, 1)^t . 1^(n-1) where
    # P(t, c) generates the image of letter c under the morphisms of levels
    # t .. n-1 (letter c becomes 1^t (c+1) at level t)
    b = SlpBuilder()
    one = b.term(1)
    if n == 2:
        return b.build(one)

    def ones(t: int) -> int:
        return b.power(one, t)

    memo: dict[tuple[int, int], int] = {}

    def p(t: int, c: int) -> int:
        got = memo.get((t, c))
        if got is not None:
            return got
        if t == n - 1:
            node = b.cat(ones(t), b.term(c + 1))
        else:
            node = b.cat(b.power(p(t + 1, 1), t), p(t + 1, c + 1))
        memo[(t, c)] = node
        return node

    parts = [p(2, 1)]
    for t in range(2, n - 1):
        parts.append(b.power(p(t + 1, 1), t))
    parts.append(ones(n - 1))
    return b.build(b.concat_all(parts))


def _heap_w(n: int) -> list[tuple[int, int]]:
    """Separator transpositions between the n copies of the previous level."""
    if n % 2:
        return [(0, n - 1)] * (n - 1)
    return [(i, n - 1) for i in range(n - 1)]


def _heap_slp(n: int) -> Slp:
    b = SlpBuilder()
    node = b.term(heap_op(0, 1, n))
    for t in range(3, n + 1):
        if t % 2:
            node = b.cat(node, b.power(b.cat(b.term(heap_op(0, t - 1, n)), node), t - 1))
        else:
            parts = [node]
            for (i, j) in _heap_w(t):
                parts.append(b.term(heap_op(i, j, n)))
                parts.append(node)
            node = b.concat_all(parts)
    return b.build(node)


def ehrlich_morphism(n: int) -> dict[int, int]:
    """Letter permutation h_n on {1..n-1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    h = {1: 1}
    for t in range(2, n):
        # h_{t+1}(j) = h_t^(t+1)(shift_t(j)) with shift_t(1) = t, else j - 1
        power = {j: j for j in range(1, t + 1)}
        for _ in range(t + 1):
            power = {j: h.get(power[j], power[j]) for j in power}
        h = {j: power[t if j == 1 else j - 1] for j in range(1, t + 1)}
    return h


def _ehrlich_slp(n: int) -> Slp:
    if n > _EHRLICH_GRAMMAR_MAX:
        raise SizeLimitError(
            f"ehrlich grammar bounded at n <= {_EHRLICH_GRAMMAR_MAX}: the"
            " morphism closure grows too fast for a strict SLP"
        )
    b = SlpBuilder()
    hs = {t: ehrlich_morphism(t) for t in range(2, n)}
    identity = tuple(range(1, n))  # sigma[j-1] = image of j

    def compose(sig: tuple[int, ...], h: dict[int, int]) -> tuple[int, ...]:
        # apply h first, then sig
        return tuple(sig[h.get(j, j) - 1] for j in range(1, n))

    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def build(t: int, sig: tuple[int, ...]) -> int:
        got = memo.get((t, sig))
        if got is not None:
            return got
        if t == 2:
            node = b.term(sig[0])
        else:
            h = hs[t - 1]
            parts = [build(t - 1, sig)]
            comp = sig
            for _ in range(t - 1):
                comp = compose(comp, h)
                parts.append(b.term(sig[t - 2]))
                parts.append(build(t - 1, comp))
            node = b.concat_all(parts)
        memo[(t, sig)] = node
        return node

    return b.build(build(n, identity))


def _image_with_parity(g: Slp, b: SlpBuilder, term_image) -> int:
    """Rebuild g inside builder b, replacing each terminal by
    term_image(letter, index_parity); parities thread through lengths.
    g holds term and cat rules only, as every stj level does.  Recurses once
    per rule on a path of g: 188 deep at most, for the last stj level at
    n = 20, well inside the default recursion limit."""
    node_of: dict[tuple[int, int], int] = {}
    length = rule_lengths(g)

    def image(v: int, p: int) -> int:
        got = node_of.get((v, p))
        if got is not None:
            return got
        rule = g.rules[v]
        if rule[0] == "term":
            node = term_image(rule[1], p)
        elif rule[0] == "cat":
            left = image(rule[1], p)
            node = b.cat(left, image(rule[2], (p + length[rule[1]]) % 2))
        else:
            raise ValueError("parity image of a power rule is not defined")
        node_of[(v, p)] = node
        return node

    return image(g.start, 0)


def _stj_slp(n: int) -> Slp:
    # level up: every letter a at even 0-based index becomes a+1, separators
    # after even indices read 0..t-2 and after odd ones read back down
    bb = SlpBuilder()
    prev = bb.build(bb.term(0))
    for t in range(3, n + 1):
        bb = SlpBuilder()
        w = list(range(t - 1))
        wn = bb.concat_all([bb.term(i) for i in w])
        wr = bb.concat_all([bb.term(i) for i in reversed(w)])

        def term_image(letter: int, parity: int, bb=bb, wn=wn, wr=wr) -> int:
            bumped = letter + 1 if parity == 0 else letter
            sep = wn if parity == 0 else wr
            return bb.cat(bb.term(bumped), sep)

        body = _image_with_parity(prev, bb, term_image)
        prev = bb.build(bb.cat(wr, body))
    return prev


def gen_sequence(kind: str, n: int) -> Slp:
    """Straight-line program for the generating sequence of the given kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not 2 <= n <= _GRAMMAR_MAX:
        raise ValueError(f"need 2 <= n <= {_GRAMMAR_MAX}")
    if kind == "zaks":
        return _zaks_slp(n)
    if kind == "knuthC":
        return _knuth_slp(n)
    if kind == "heap":
        return _heap_slp(n)
    if kind == "ehrlich":
        return _ehrlich_slp(n)
    return _stj_slp(n)


# ----------------------------------------------------------- op semantics


def apply_op(kind: str, perm: list, op: int, n: int) -> list:
    if kind == "zaks":
        k = op + 1
        return perm[:k][::-1] + perm[k:]
    if kind == "knuthC":
        return perm[op:] + perm[:op][::-1]
    if kind == "heap":
        i, j = heap_op_decode(op, n)
        perm = list(perm)
        perm[i], perm[j] = perm[j], perm[i]
        return perm
    if kind == "ehrlich":
        perm = list(perm)
        perm[0], perm[op] = perm[op], perm[0]
        return perm
    if kind == "stj":
        perm = list(perm)
        perm[op], perm[op + 1] = perm[op + 1], perm[op]
        return perm
    raise ValueError(f"unknown kind {kind!r}")


def run_generator(kind: str, n: int, start: Sequence | None = None) -> list[tuple]:
    """All permutations visited by the generating sequence, first included."""
    if not 2 <= n <= _RUN_MAX:
        raise ValueError(f"need 2 <= n <= {_RUN_MAX}")
    ops = slp_expand(gen_sequence(kind, n))
    perm = list(start) if start is not None else list(range(1, n + 1))
    if len(perm) != n:
        raise ValueError("start arrangement has wrong length")
    out = [tuple(perm)]
    for op in ops:
        perm = apply_op(kind, perm, op, n)
        out.append(tuple(perm))
    return out


def rho_stream(limit: int) -> Iterator[int]:
    """Factorial ruler sequence: rho_k = max j with j! dividing k."""
    if limit > 10 ** 7:
        raise SizeLimitError("rho_stream bounded at 10**7")
    if limit < 0:
        raise ValueError(f"rho_stream length must be >= 0, got {limit}")
    digits: list[int] = []  # factorial representation of k-1

    def emit() -> int:
        # increment the factorial counter; the carry height is rho
        j = 0
        while j < len(digits) and digits[j] == j + 1:
            digits[j] = 0
            j += 1
        if j == len(digits):
            digits.append(0)
        digits[j] += 1
        return j + 1

    for _ in range(limit):
        yield emit()
