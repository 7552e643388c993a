"""Idempotent (free band) equivalence of words: the congruence generated by
identifying uu with u, decided through characteristic quadruples.  One
right-to-left scan gives the ends of every window of k letters for every k
at once; the left windows and the suffix of a quadruple are the same scans
run on the reversed word.  Its references are ``oracles.band_signatures`` and
``oracles.rewrite_closure_classes``."""

from __future__ import annotations

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Sequence

_ALPHABET_MAX = 64


class Quadruple:
    """(p, a, b, q), equal and hashed as that tuple: a is the letter completing
    the alphabet from the left, b the one completing it from the right."""

    __slots__ = ("prefix", "first_new", "last_new", "suffix")

    def __init__(self, prefix: tuple[int, ...], first_new: int, last_new: int,
                 suffix: tuple[int, ...]):
        self.prefix, self.suffix = prefix, suffix
        self.first_new, self.last_new = first_new, last_new

    def _key(self) -> tuple:
        return self.prefix, self.first_new, self.last_new, self.suffix

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Quadruple else NotImplemented

    def __hash__(self):
        return hash(self._key())


def _alphabet_prefix(x: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(p, a) with pa the shortest prefix of x that uses every letter of x."""
    full = len(set(x))
    seen: set[int] = set()
    for i, c in enumerate(x):
        seen.add(c)
        if len(seen) == full:
            return tuple(x[:i]), c


def psi(x: Sequence[int]) -> Quadruple:
    """Characteristic quadruple (p, a, b, q): pa is the shortest prefix and
    bq the shortest suffix using the full alphabet of x.  The suffix is the
    prefix of the reversed word, read backwards."""
    if not x:
        raise ValueError("need a non-empty word")
    p, a = _alphabet_prefix(x)
    q, b = _alphabet_prefix(x[::-1])
    return Quadruple(p, a, b, q[::-1])


def _window_ends(z: Sequence[int]) -> list[list[int]]:
    """ends[i][k] = largest j with |alph(z[i..j])| = k, for k = 0..|alph(z[i:])|:
    the (k+1)-th first position of a letter in z[i:], less one, or n-1 after
    the last.  One right-to-left scan keeps those entries in order."""
    ends, entry = [[len(z) - 1]], {}  # entry: letter -> its value in ends[i+1]
    for i in range(len(z) - 1, -1, -1):
        e = [i - 1, *ends[-1]]
        if z[i] in entry:
            e.remove(entry[z[i]])
        entry[z[i]] = i - 1
        ends.append(e)
    return ends[:0:-1]


def idempotent_equivalent(x: Sequence[int], y: Sequence[int]) -> bool:
    """Dynamic-programming equivalence test over the essential factors of
    x $ y.  Rank by rank from the empty factor, a factor with k letters gets
    the dense id of its quadruple: the ids of its longest prefix and suffix
    with k-1 letters and the letters next to them.  One scan of x $ y gives
    every prefix end, one scan of its reverse every suffix start."""
    if len(set(x) | set(y)) > _ALPHABET_MAX:
        raise ValueError(f"combined alphabet bounded at {_ALPHABET_MAX}")
    if not x or not y:
        return list(x) == list(y)
    if set(x) != set(y):
        return False
    sep = max(max(x), max(y)) + 1
    z = list(x) + [sep] + list(y)
    n = len(z)
    ends = _window_ends(z)
    starts = [list(map((n - 1).__sub__, e)) for e in reversed(_window_ends(z[::-1]))]
    right = left = [0] * n  # rank 0: the empty factors (i, i-1) and (j+1, j)
    for k in range(1, len(set(x)) + 1):
        order: dict[tuple, int] = {}

        def quad(r: int, s: int) -> int:
            a, b = ends[r][k - 1], starts[s][k - 1]
            return order.setdefault((right[r], z[a + 1], z[b - 1], left[s]), len(order))

        right, left = ([quad(r, e[k]) if len(e) > k else -1 for r, e in enumerate(ends)],
                       [quad(e[k], s) if len(e) > k else -1 for s, e in enumerate(starts)])
    return right[0] == left[n - 1]
