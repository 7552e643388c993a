"""Factor tests in morphic words, repetition-avoiding constructions, counting
sequences for unbordered words, and list-constrained square-free words."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence


_EVEN4 = {(0, 1, 1, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 1)}


def _mu_inverse(x: Sequence[int]) -> list[int] | None:
    """Inverse of 0 -> 01, 1 -> 10; None when x is not in {01,10}*."""
    if len(x) % 2:
        return None
    out = []
    for i in range(0, len(x), 2):
        a, b = x[i], x[i + 1]
        if a == b:
            return None
        out.append(a)
    return out


def _binary_word(x: Sequence[int]) -> list[int]:
    """x as a list, once it is known to be a non-empty word over {0, 1}."""
    if not x:
        raise ValueError("need a non-empty word")
    w = list(x)
    bad = set(w) - {0, 1}
    if bad:
        raise ValueError(f"need a binary word, got symbol {min(bad)}")
    return w


def tm_factor_test(x: Sequence[int]) -> bool:
    """Is x a factor of the infinite Thue-Morse word?  Each round halves x."""
    w: list[int] | None = _binary_word(x)
    while True:
        if w is None:
            return False
        if len(w) < 4:
            return tuple(w) not in {(1, 1, 1), (0, 0, 0)}
        if tuple(w[:4]) not in _EVEN4:
            w = [1 - w[0]] + w
        if len(w) % 2:
            w = w + [1 - w[-1]]
        w = _mu_inverse(w)


def _phi_inverse(x: Sequence[int]) -> list[int] | None:
    """Inverse of the Fibonacci morphism a -> ab, b -> a (a=0, b=1)."""
    out = []
    i = 0
    while i < len(x):
        if x[i] == 1:
            return None
        if i + 1 < len(x) and x[i + 1] == 1:
            out.append(0)
            i += 2
        else:
            out.append(1)
            i += 1
    return out


def fib_factor_test(x: Sequence[int]) -> bool:
    """Is x a factor of the infinite Fibonacci word (a=0, b=1)?"""
    w: list[int] | None = _binary_word(x)
    while True:
        if w is None:
            return False
        if len(w) == 1:
            return True
        if w[0] == 1:
            w = [0, 1] + w[1:]
        if len(w) >= 2 and w[-2:] == [1, 0]:
            w = w[:-1]
        elif len(w) >= 2 and w[-2:] == [0, 0]:
            w = w + [1]
        w = _phi_inverse(w)


# ------------------------------------------------------------- grasshoppers
#
# Six-letter alphabet: letters 2*c are plain a/b/c, letters 2*c+1 their
# primed twins.  The doubling coding maps each ternary letter c to (2c, 2c+1).


def is_primed(s: int) -> bool:
    return s % 2 == 1


def unprime(s: int) -> int:
    return s // 2


def squarefree_ternary(n: int) -> list[int]:
    """Length-n prefix of the fixed point of 0 -> 012, 1 -> 02, 2 -> 1."""
    if n < 0:
        raise ValueError("need n >= 0")
    images = ((0, 1, 2), (0, 2), (1,))
    w = [0]
    while len(w) < n:
        w = [s for c in w for s in images[c]]
    return w[:n]


def doubling_code(v: Sequence[int]) -> list[int]:
    """Apply c -> c c' to a ternary word."""
    out = []
    for c in v:
        if c not in (0, 1, 2):
            raise ValueError("doubling code needs a ternary word")
        out.extend((2 * c, 2 * c + 1))
    return out


def grasshopper_squarefree_word(n: int) -> list[int]:
    """Length-n word over six letters with no grasshopper square."""
    if n < 1:
        raise ValueError("need n >= 1")
    return doubling_code(squarefree_ternary((n + 1) // 2))[:n]


def grasshopper_cubefree_word(n: int) -> list[int]:
    """Length-n ternary word with no grasshopper cube: each letter of a
    square-free ternary word doubled.

    Same-letter positions then come in adjacent pairs at least three apart,
    so no letter chains three times by jumps of one or two, and longer cubes
    would force a square in the base word.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    out: list[int] = []
    for c in squarefree_ternary((n + 1) // 2):
        out.extend((c, c))
    return out[:n]


def c_padding_code(v: Sequence[int]) -> list[int]:
    """The cited coding a -> cca, b -> ccb (kept for reference; its output
    contains the single-letter grasshopper cube ccc from length 4 on)."""
    out: list[int] = []
    for b in v:
        if b not in (0, 1):
            raise ValueError("source must be binary")
        out.extend((2, 2, b))
    return out


def is_grasshopper_subsequence(z: Sequence[int], y: Sequence[int]) -> bool:
    """Can z be read along y advancing by one or two positions at a time?"""
    if not z:
        return True
    starts = {i for i, s in enumerate(y) if s == z[0]}
    cur = starts
    for sym in z[1:]:
        nxt = set()
        for i in cur:
            for d in (1, 2):
                if i + d < len(y) and y[i + d] == sym:
                    nxt.add(i + d)
        cur = nxt
        if not cur:
            return False
    return True


def recover_square(x: Sequence[int], z: Sequence[int], *,
                   verify_occurrence: bool = False) -> list[int]:
    """Turn a grasshopper square of the doubled word back into an ordinary
    square of the ternary word x.

    Occurrence validation is opt-in: the gap-filling walk itself only reads z.
    """
    k = len(z)
    if k < 2 or k % 2 or list(z[:k // 2]) != list(z[k // 2:]):
        raise ValueError("z must be a square")
    if verify_occurrence and not is_grasshopper_subsequence(z, doubling_code(x)):
        raise ValueError("z is not a grasshopper subsequence of the doubled word")
    v: list[int] = []
    i = 0
    while i < k:
        if not is_primed(z[i]) and i + 1 < k and is_primed(z[i + 1]):
            v.append(unprime(z[i]))
            i += 2
        else:
            v.append(unprime(z[i]))
            i += 1
    if len(v) % 2:
        v.pop()
    return v


# ------------------------------------------------------ unbordered counting


def unbordered_counts(n: int) -> tuple[list[int], list[int], list[int]]:
    """(u, v, t): unbordered binary words, words without nontrivial even
    palindromic prefix, and without nontrivial odd palindromic prefix."""
    if n < 0 or n > 10 ** 6:
        raise ValueError("need 0 <= n <= 10**6")
    u = [0] * (n + 1)
    u[0] = 1
    if n >= 1:
        u[1] = 2
    for m in range(2, n + 1):
        if m % 2:
            u[m] = 2 * u[m - 1]
        else:
            u[m] = 2 * u[m - 1] - u[m // 2]
    v = list(u)
    t = [0] * (n + 1)
    t[0] = 1
    if n >= 1:
        t[1] = 2
    for m in range(2, n + 1):
        t[m] = 2 * t[m - 1] if m % 2 == 0 else v[m]
    return u, v, t


def unbordered_weighted(n: int, k: int) -> int:
    """Number of length-n unbordered binary words with exactly k ones."""
    if not 0 <= k <= n <= 60:
        raise ValueError("need 0 <= k <= n <= 60")
    table: dict[tuple[int, int], int] = {(0, 0): 1, (1, 0): 1, (1, 1): 1,
                                         (2, 0): 0, (2, 1): 2, (2, 2): 0}

    def U(nn: int, kk: int) -> int:
        if kk < 0 or kk > nn:
            return 0
        got = table.get((nn, kk))
        if got is not None:
            return got
        if kk == 0 or kk == nn:
            val = 0  # constant words of length >= 2 are bordered
        else:
            val = U(nn - 1, kk) + U(nn - 1, kk - 1)
            if nn % 2 == 0 and kk % 2 == 0:
                val -= U(nn // 2, kk // 2)
        table[(nn, kk)] = val
        return val

    return U(n, k)


def ternary_no_palprefix(n: int) -> int:
    """Ternary words of length n without any nontrivial palindromic prefix."""
    if n < 0 or n > 10 ** 4:
        raise ValueError("need 0 <= n <= 10**4")
    a = [0] * (n + 1)
    a[0] = 1
    if n >= 1:
        a[1] = 3
    for m in range(2, n + 1):
        a[m] = 3 * a[m - 1] - a[(m + 1) // 2]
    return a[n]


def interleave_fold(w: Sequence[int]) -> list[int]:
    """Fold w = u a v (|u| = |v|, |a| <= 1) into interleave(u, reverse(v)) + a;
    borders of w become even palindromic prefixes of the image."""
    m = len(w) // 2
    u, v = w[:m], w[len(w) - m:]
    mid = list(w[m:len(w) - m])
    out: list[int] = []
    for a, b in zip(u, reversed(v)):
        out.extend((a, b))
    return out + mid


def xor_fold(w: Sequence[int]) -> list[int]:
    """Adjacent-xor image; odd palindromes map to even palindromes."""
    return [a ^ b for a, b in zip(w, w[1:])]


# ------------------------------------------- list-constrained square-free


@dataclass(frozen=True)
class PushPopTrace:
    ops: tuple[str, ...]      # sequence of "push" / "pop"
    word: tuple[int, ...]     # residual stack content


def _suffix_square_half(u: Sequence[int]) -> int:
    """Largest h with u ending in a square of half-length h, else 0."""
    best = 0
    n = len(u)
    for h in range(1, n // 2 + 1):
        if u[n - 2 * h:n - h] == u[n - h:]:
            best = h
    return best


def list_squarefree(lists: Sequence[Sequence[int]], control: Sequence[int]) -> PushPopTrace:
    """Backtracking stack run driven by a control sequence in {1..5}^(8n).

    Pushes the control-selected candidate for the next position and pops the
    half of any square suffix that appears.  Succeeds when the stack holds a
    full-length word, which is then square-free and list-constrained.
    """
    n = len(lists)
    for li in lists:
        if len(li) != 5:
            raise ValueError("every candidate list must have exactly 5 letters")
    if len(control) != 8 * n:
        raise ValueError(f"control sequence must have length {8 * n}")
    if any(c not in (1, 2, 3, 4, 5) for c in control):
        raise ValueError("control symbols must lie in 1..5")
    ordered = [sorted(li) for li in lists]
    u: list[int] = []
    ops: list[str] = []
    i = 0
    while i < 8 * n and len(u) < n:
        j = len(u)
        u.append(ordered[j][control[i] - 1])
        ops.append("push")
        h = _suffix_square_half(u)
        if h:
            del u[-h:]
            ops.extend(["pop"] * h)
        i += 1
    return PushPopTrace(tuple(ops), tuple(u))


def list_squarefree_random(lists: Sequence[Sequence[int]], seed: int,
                           max_tries: int = 10 ** 6) -> tuple[list[int], int]:
    """Sample control sequences until one succeeds; returns (word, tries)."""
    n = len(lists)
    rng = random.Random(seed)
    for attempt in range(1, max_tries + 1):
        c = [rng.randint(1, 5) for _ in range(8 * n)]
        trace = list_squarefree(lists, c)
        if len(trace.word) == n:
            return list(trace.word), attempt
    raise RuntimeError("no successful control sequence found")


def is_square_free(w: Sequence[int]) -> bool:
    n = len(w)
    for i in range(n):
        for h in range(1, (n - i) // 2 + 1):
            if w[i:i + h] == w[i + h:i + 2 * h]:
                return False
    return True
