"""Linear feedback shift registers, binary polynomial arithmetic, primitivity
testing, and the two-cycle decomposition of de Bruijn graphs."""

from __future__ import annotations

from .words import SizeLimitError

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing at run time
if TYPE_CHECKING:
    from collections.abc import Sequence

_EXPAND_MAX = 24
_PRIMITIVE_MAX = 24


class LfsrSpec:
    __slots__ = ("taps",)

    def __init__(self, taps: tuple[int, ...]):
        if len(taps) < 2:
            raise ValueError("need at least two taps")
        if any(b not in (0, 1) for b in taps):
            raise ValueError("taps must be bits")
        if not any(taps):
            raise ValueError("taps must not be all zero")
        self.taps = taps  # (a_0, ..., a_{n-1})

    @property
    def degree(self) -> int:
        return len(self.taps)


class Gf2Poly:
    """Binary polynomial stored as a bit mask, bit i = coefficient of x**i."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits < 0:
            raise ValueError("bits must be non-negative")
        self.bits = bits

    def __eq__(self, other):
        return self.bits == other.bits if type(other) is Gf2Poly else NotImplemented

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"Gf2Poly(bits={self.bits!r})"

    @property
    def degree(self) -> int:
        return self.bits.bit_length() - 1

    @classmethod
    def from_exponents(cls, exps: Sequence[int]) -> "Gf2Poly":
        bits = 0
        for e in exps:
            bits ^= 1 << e
        return cls(bits)

    def exponents(self) -> list[int]:
        return [i for i in range(self.bits.bit_length()) if (self.bits >> i) & 1]


def poly_of_spec(spec: LfsrSpec) -> Gf2Poly:
    """x**n + a_{n-1} x**(n-1) + ... + a_0."""
    n = spec.degree
    bits = 1 << n
    for i, a in enumerate(spec.taps):
        if a:
            bits |= 1 << i
    return Gf2Poly(bits)


def spec_of_poly(p: Gf2Poly) -> LfsrSpec:
    n = p.degree
    return LfsrSpec(tuple((p.bits >> i) & 1 for i in range(n)))


def lfsr(spec: LfsrSpec) -> list[int]:
    """Bit stream of length (2**n - 1) + n - 1 seeded with 0^(n-1) 1."""
    n = spec.degree
    if n > _EXPAND_MAX:
        raise SizeLimitError(f"lfsr expansion bounded at degree {_EXPAND_MAX}")
    total = (1 << n) - 1 + n - 1
    bits = [0] * (n - 1) + [1]
    # tap i reads bits[len(bits) - n + i], that is bits[i - n]; only the
    # nonzero taps are read
    offsets = [i - n for i, a in enumerate(spec.taps) if a]
    for _ in range(total - n):
        acc = 0
        for i in offsets:
            acc ^= bits[i]
        bits.append(acc)
    return bits


def lfsr_gen(spec: LfsrSpec) -> list[list[int]]:
    """The 2**n - 1 consecutive length-n windows of the stream."""
    stream = lfsr(spec)
    n = spec.degree
    return [stream[i:i + n] for i in range((1 << n) - 1)]


def _poly_mod_mul(a: int, b: int, mod: int, n: int) -> int:
    """Schoolbook product of two polynomials reduced modulo mod (degree n)."""
    res = 0
    while a:
        if a & 1:
            res ^= b
        a >>= 1
        b <<= 1
        if b >> n & 1:
            b ^= mod
    return res


def _x_power_mod(m: int, mod: int, n: int) -> int:
    """x**m modulo the degree-n polynomial mod, by square and multiply."""
    result = 1
    base = 2
    if base >> n & 1:
        base ^= mod
    e = m
    while e:
        if e & 1:
            result = _poly_mod_mul(result, base, mod, n)
        base = _poly_mod_mul(base, base, mod, n)
        e >>= 1
    return result


def is_primitive(p: Gf2Poly) -> bool:
    """Do the powers of x modulo p run through all nonzero residues?"""
    n = p.degree
    if n < 1:
        return False
    if n > _PRIMITIVE_MAX:
        raise SizeLimitError(f"is_primitive bounded at degree {_PRIMITIVE_MAX}")
    if not p.bits & 1:
        return False  # divisible by x
    order_bound = (1 << n) - 1
    cur = 1
    for i in range(1, order_bound + 1):
        cur <<= 1
        if cur >> n & 1:
            cur ^= p.bits
        if cur == 1:
            return i == order_bound
    return False


def nth_gen_word(spec: LfsrSpec, m: int, method: str = "matrix") -> list[int]:
    """The m-th window of the generator, without expanding the stream: x**m
    modulo the register's polynomial by square and multiply, then n shifts.

    ``method`` is "matrix" or "poly"; both names compute the same window this
    one way.  Needs a non-singular register (constant tap set): the
    identification of windows with powers of x breaks down when x divides the
    polynomial.
    """
    n = spec.degree
    if not spec.taps[0]:
        raise ValueError("nth_gen_word needs taps[0] == 1")
    if not 1 <= m <= (1 << n) - 1:
        raise ValueError("need 1 <= m <= 2**n - 1")
    if method not in ("matrix", "poly"):
        raise ValueError("method must be 'matrix' or 'poly'")
    mod = poly_of_spec(spec).bits
    cur = _x_power_mod(m, mod, n)
    out = []
    for _ in range(n):
        out.append(cur & 1)  # constant coefficient tops the column
        cur = _poly_mod_mul(cur, 2, mod, n)
    return out


def debruijn_two_cycles(p: Gf2Poly) -> tuple[list[int], list[int]]:
    """Two complementary words of length 2**n - 1 whose cyclic n-windows are
    all distinct and whose cyclic (n+1)-window sets are disjoint."""
    if not is_primitive(p):
        raise ValueError("polynomial must be primitive")
    spec = spec_of_poly(p)
    n = spec.degree
    stream = lfsr(spec)
    w = stream[:(1 << n) - 1]
    u = [1 - b for b in w]
    return w, u


def cycle_nodes(w: Sequence[int], n: int) -> list[int]:
    """Cyclic length-n windows of w as integers, most significant bit first."""
    doubled = list(w) + list(w[:n])
    out = []
    for i in range(len(w)):
        acc = 0
        for b in doubled[i:i + n]:
            acc = (acc << 1) | b
        out.append(acc)
    return out
