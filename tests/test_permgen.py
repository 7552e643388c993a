import math

import pytest

from stringology.permgen import (
    KINDS,
    apply_op,
    ehrlich_morphism,
    gen_sequence,
    heap_op,
    heap_op_decode,
    rho_stream,
    run_generator,
)
from stringology.oracles import knuth_next
from stringology.slp import slp_expand, slp_length
from stringology.words import SizeLimitError


def seq(kind, n):
    return slp_expand(gen_sequence(kind, n))


def test_zaks_strings():
    assert seq("zaks", 2) == [1]
    assert seq("zaks", 3) == [1, 2, 1, 2, 1]
    assert seq("zaks", 4) == [int(c) for c in "12121312121312121312121"]


def test_zaks_trace():
    perms = run_generator("zaks", 3)
    assert perms == [(1, 2, 3), (2, 1, 3), (3, 1, 2), (1, 3, 2), (2, 3, 1), (3, 2, 1)]


def test_zaks_reversal_property_any_start():
    import itertools
    import random

    rng = random.Random(44)
    for n in range(2, 8):
        starts = [tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
        for _ in range(3):
            s = list(range(1, n + 1))
            rng.shuffle(s)
            starts.append(tuple(s))
        for start in starts:
            perms = run_generator("zaks", n, start=start)
            assert len(set(perms)) == math.factorial(n)
            assert perms[-1] == tuple(reversed(start))
    for start in itertools.permutations((1, 2, 3, 4)):
        perms = run_generator("zaks", 4, start=start)
        assert perms[-1] == tuple(reversed(start))
        assert len(set(perms)) == 24


def test_knuth_strings():
    assert seq("knuthC", 2) == [1]
    assert seq("knuthC", 3) == [1, 1, 2, 1, 1]
    assert seq("knuthC", 4) == [int(c) for c in "11121112111311121112111"]


def test_knuth_trace_n3():
    perms = run_generator("knuthC", 3)
    assert perms == [(1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1)]


def test_knuth_trace_n4_full():
    want = [
        "1234", "2341", "3412", "4123", "2314", "3142", "1423", "4231",
        "3124", "1243", "2431", "4312", "2134", "1342", "3421", "4213",
        "1324", "3241", "2413", "4132", "3214", "2143", "1432", "4321",
    ]
    got = ["".join(map(str, p)) for p in run_generator("knuthC", 4)]
    assert got == want


def test_knuth_next_agrees_with_sequence():
    for n in range(2, 7):
        ops = seq("knuthC", n)
        perm = list(range(1, n + 1))
        derived = []
        while True:
            step = knuth_next(perm)
            if step is None:
                break
            perm, k = step
            derived.append(k)
        assert derived == ops


def test_heap_structure_and_goldens():
    assert seq("heap", 2) == [heap_op(0, 1, 2)]
    ops3 = [heap_op_decode(s, 3) for s in seq("heap", 3)]
    assert ops3 == [(0, 1), (0, 2), (0, 1), (0, 2), (0, 1)]
    assert run_generator("heap", 5, start=range(5))[-1] == (4, 1, 2, 3, 0)
    assert run_generator("heap", 6, start=range(6))[-1] == (3, 4, 1, 2, 5, 0)
    assert run_generator("heap", 7, start=range(7))[-1] == (6, 1, 2, 3, 4, 5, 0)
    assert run_generator("heap", 8, start=range(8))[-1] == (5, 6, 1, 2, 3, 4, 7, 0)


def test_ehrlich_strings():
    assert seq("ehrlich", 3) == [1, 2, 1, 2, 1]
    assert seq("ehrlich", 4) == [1, 2, 1, 2, 1, 3, 2, 1, 2, 1, 2, 3, 1, 2, 1, 2, 1, 3, 2, 1, 2, 1, 2]
    e5 = seq("ehrlich", 5)
    assert e5[:36] == [1, 2, 1, 2, 1, 3, 2, 1, 2, 1, 2, 3, 1, 2, 1, 2, 1, 3,
                       2, 1, 2, 1, 2, 4, 3, 1, 3, 1, 3, 2, 1, 3, 1, 3, 1, 2]


def test_ehrlich_morphism_tables():
    expected = {
        2: [1],
        3: [2, 1],
        4: [3, 1, 2],
        5: [4, 2, 3, 1],
        6: [5, 1, 2, 3, 4],
        7: [6, 4, 5, 1, 2, 3],
        8: [7, 3, 1, 2, 6, 4, 5],
        9: [8, 5, 1, 7, 3, 4, 2, 6],
    }
    for n, arr in expected.items():
        h = ehrlich_morphism(n)
        assert [h[j] for j in sorted(h)] == arr


def test_ehrlich_grammar_bound():
    with pytest.raises(SizeLimitError):
        gen_sequence("ehrlich", 11)


def test_stj_strings():
    assert seq("stj", 2) == [0]
    assert seq("stj", 3) == [1, 0, 1, 0, 1]
    s4 = seq("stj", 4)
    assert s4 == [int(c) for c in "21020120" * 2 + "2102012"]


def test_lengths_are_factorial_minus_one():
    for kind in KINDS:
        for n in range(2, 9 if kind != "ehrlich" else 9):
            assert slp_length(gen_sequence(kind, n)) == math.factorial(n) - 1
    for kind in ("zaks", "knuthC", "heap", "stj"):
        assert slp_length(gen_sequence(kind, 20)) == math.factorial(20) - 1


def test_op_semantics():
    assert apply_op("zaks", [1, 2, 3, 4], 2, 4) == [3, 2, 1, 4]
    assert apply_op("knuthC", [1, 2, 3, 4], 3, 4) == [4, 3, 2, 1]
    assert apply_op("ehrlich", [1, 2, 3], 2, 3) == [3, 2, 1]
    assert apply_op("stj", [1, 2, 3], 1, 3) == [1, 3, 2]
    assert apply_op("heap", [1, 2, 3], heap_op(0, 2, 3), 3) == [3, 2, 1]


def test_kind_validation():
    with pytest.raises(ValueError):
        gen_sequence("bogus", 4)
    with pytest.raises(ValueError):
        gen_sequence("zaks", 1)
    with pytest.raises(ValueError):
        run_generator("zaks", 10)


def test_rho_values():
    assert list(rho_stream(14)) == [1, 2, 1, 2, 1, 3, 1, 2, 1, 2, 1, 3, 1, 2]
    vals = list(rho_stream(720))
    assert vals[5] == 3  # rho_6
    for k in range(1, 721):
        want = max(j for j in range(1, 8) if k % math.factorial(j) == 0)
        assert vals[k - 1] == want


def test_rho_negative_length_is_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        list(rho_stream(-1))
    assert list(rho_stream(0)) == []


def test_rho_prefix_equals_zaks_expansion():
    for n in (3, 4, 5, 6):
        want = seq("zaks", n)
        assert list(rho_stream(math.factorial(n) - 1)) == want
