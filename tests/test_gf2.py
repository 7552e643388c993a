import random

import pytest

from stringology.gf2 import (
    Gf2Poly,
    LfsrSpec,
    cycle_nodes,
    debruijn_two_cycles,
    is_primitive,
    lfsr,
    lfsr_gen,
    nth_gen_word,
    poly_of_spec,
    spec_of_poly,
)
from stringology.rings import cyclic_factors

from helpers import bits


def test_lfsr_examples():
    assert lfsr(LfsrSpec((1, 1, 0))) == bits("001011100")
    gen = lfsr_gen(LfsrSpec((1, 1, 0)))
    assert ["".join(map(str, w)) for w in gen] == [
        "001", "010", "101", "011", "111", "110", "100"
    ]


def test_gen_10100_first_windows():
    gen = lfsr_gen(LfsrSpec((1, 0, 1, 0, 0)))
    assert ["".join(map(str, w)) for w in gen[:6]] == [
        "00001", "00010", "00100", "01001", "10010", "00101"
    ]


def test_spec_validation():
    with pytest.raises(ValueError):
        LfsrSpec((0, 0, 0))
    with pytest.raises(ValueError):
        LfsrSpec((1,))
    with pytest.raises(ValueError):
        LfsrSpec((1, 2))


def test_poly_spec_roundtrip():
    p = Gf2Poly.from_exponents([5, 2, 0])
    assert spec_of_poly(p).taps == (1, 0, 1, 0, 0)
    assert poly_of_spec(spec_of_poly(p)) == p
    assert p.degree == 5
    assert p.exponents() == [0, 2, 5]


def test_nth_gen_word_examples():
    spec = LfsrSpec((1, 0, 1, 0, 0))
    assert nth_gen_word(spec, 6, "matrix") == bits("00101")
    assert nth_gen_word(spec, 6, "poly") == bits("00101")
    assert nth_gen_word(spec, 1, "matrix") == bits("00001")
    with pytest.raises(ValueError):
        nth_gen_word(spec, 0)
    with pytest.raises(ValueError):
        nth_gen_word(spec, 32)
    with pytest.raises(ValueError):
        nth_gen_word(spec, 3, "fft")


def test_nth_methods_agree_with_direct_generation():
    for taps in [(1, 1, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 1, 0, 1, 0)]:
        spec = LfsrSpec(taps)
        gen = lfsr_gen(spec)
        for m in range(1, len(gen) + 1):
            assert nth_gen_word(spec, m, "matrix") == gen[m - 1]
            assert nth_gen_word(spec, m, "poly") == gen[m - 1]
    rng = random.Random(7)
    for n in (10, 12):
        for _ in range(3):
            # non-singular registers only: the power form needs taps[0] = 1
            taps = (1,) + tuple(rng.randrange(2) for _ in range(n - 1))
            spec = LfsrSpec(taps)
            gen = lfsr_gen(spec)
            for _ in range(25):
                m = rng.randint(1, len(gen))
                assert nth_gen_word(spec, m, "matrix") == gen[m - 1]
                assert nth_gen_word(spec, m, "poly") == gen[m - 1]


def test_nth_gen_word_rejects_singular_register():
    with pytest.raises(ValueError):
        nth_gen_word(LfsrSpec((0, 1, 1)), 2)


def test_primitive_examples():
    assert is_primitive(Gf2Poly.from_exponents([5, 2, 0]))
    assert is_primitive(Gf2Poly.from_exponents([4, 3, 0]))
    assert not is_primitive(Gf2Poly.from_exponents([4, 2, 0]))  # (x^2+x+1)^2


def test_primitive_trinomial_list():
    for exps in ([3, 1, 0], [4, 1, 0], [5, 2, 0], [6, 1, 0], [7, 1, 0],
                 [9, 4, 0], [10, 3, 0], [11, 2, 0], [15, 1, 0]):
        assert is_primitive(Gf2Poly.from_exponents(exps)), exps


def test_two_cycles_golden():
    w, u = debruijn_two_cycles(Gf2Poly.from_exponents([4, 3, 0]))
    assert w == bits("000111101011001")
    assert u == bits("111000010100110")
    assert cycle_nodes(w, 4) == [1, 3, 7, 15, 14, 13, 10, 5, 11, 6, 12, 9, 2, 4, 8]


def test_two_cycles_properties():
    for exps in ([3, 1, 0], [4, 1, 0], [5, 2, 0], [6, 1, 0], [7, 1, 0],
                 [9, 4, 0], [10, 3, 0]):
        p = Gf2Poly.from_exponents(exps)
        n = p.degree
        w, u = debruijn_two_cycles(p)
        assert len(w) == len(u) == (1 << n) - 1
        assert u == [1 - b for b in w]
        assert len(cyclic_factors(w, n)) == (1 << n) - 1
        assert len(cyclic_factors(u, n)) == (1 << n) - 1
        assert not (cyclic_factors(w, n + 1) & cyclic_factors(u, n + 1))


def test_two_cycles_requires_primitive():
    with pytest.raises(ValueError):
        debruijn_two_cycles(Gf2Poly.from_exponents([4, 2, 0]))


def test_tap_weight_even_for_primitive():
    for n in range(2, 11):
        for mask in range(1, 1 << n):
            if is_primitive(Gf2Poly((1 << n) | mask)):
                assert bin(mask).count("1") % 2 == 0
