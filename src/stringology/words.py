"""Core word types and generators shared by every other module.

A word is a plain list (or tuple) of non-negative integer symbols.  The
don't-care symbol HOLE is a reserved negative sentinel so it can never
collide with a real symbol.
"""

from __future__ import annotations

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from typing import Sequence

HOLE = -1

_THUE_MORSE_MAX = 25
_FIBONACCI_MAX = 30
_FACTOR_MAX = 2000
_SUBSEQ_MAX = 24


class SizeLimitError(ValueError):
    """Raised when an argument would produce an output beyond desk scale."""


def bar(x: Sequence[int]) -> list[int]:
    """Swap the two letters of a binary word."""
    return [1 - s for s in x]


def thue_morse(k: int) -> list[int]:
    """k-th Thue-Morse word over {0,1}; length 2**k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > _THUE_MORSE_MAX:
        raise SizeLimitError(f"thue_morse bounded at k <= {_THUE_MORSE_MAX}")
    w = [0]
    for _ in range(k):
        w = w + bar(w)
    return w


def fibonacci_number(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def fibonacci_word(k: int) -> list[int]:
    """k-th Fibonacci word (0 = a, 1 = b); length F(k+2)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > _FIBONACCI_MAX:
        raise SizeLimitError(f"fibonacci_word bounded at k <= {_FIBONACCI_MAX}")
    w = [0]
    for _ in range(k):
        nxt = []
        for s in w:
            nxt.extend((0, 1) if s == 0 else (0,))
        w = nxt
    return w


def zarray(x: Sequence) -> list[int]:
    """Z-array: zarray(x)[i] = |lcp(x, x[i:])|, with entry 0 equal to |x|."""
    n = len(x)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    l, r = 0, 0
    for i in range(1, n):
        if i < r:
            z[i] = min(r - i, z[i - l])
        while i + z[i] < n and x[z[i]] == x[i + z[i]]:
            z[i] += 1
        if i + z[i] > r:
            l, r = i, i + z[i]
    return z


def prefix_table(x: Sequence[int]) -> list[int]:
    """Entry i = length of the longest common prefix of x and x[i:]."""
    if len(x) < 1:
        raise ValueError("prefix_table needs a non-empty word")
    return zarray(x)


def check_factor_cap(x: Sequence[int]) -> None:
    """The cap of ``all_factors``, kept also by the CLI's factor count."""
    if len(x) > _FACTOR_MAX:
        raise SizeLimitError(f"all_factors bounded at |x| <= {_FACTOR_MAX}")


def all_factors(x: Sequence[int]) -> set[tuple[int, ...]]:
    """Set of all distinct non-empty factors (exhaustive oracle)."""
    check_factor_cap(x)
    t = tuple(x)
    out: set[tuple[int, ...]] = set()
    for i in range(len(t)):
        for j in range(i + 1, len(t) + 1):
            out.add(t[i:j])
    return out


def all_subsequences(x: Sequence[int]) -> set[tuple[int, ...]]:
    """Set of all distinct subsequences, including the empty word."""
    if len(x) > _SUBSEQ_MAX:
        raise SizeLimitError(f"all_subsequences bounded at |x| <= {_SUBSEQ_MAX}")
    out: set[tuple[int, ...]] = {()}
    for s in x:
        out |= {t + (s,) for t in out}
    return out


def is_subsequence(x: Sequence[int], y: Sequence[int]) -> bool:
    """Greedy subsequence membership test."""
    it = iter(y)
    return all(s in it for s in x)


def approx_eq(a: int, b: int) -> bool:
    """Single-symbol match where HOLE matches anything."""
    return a == b or a == HOLE or b == HOLE
