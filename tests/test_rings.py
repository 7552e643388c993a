import pytest

from stringology.rings import (
    compute_chain,
    cyclic_factors,
    is_ring_word,
    ring_word,
    _phi_lift,
)

from helpers import bits


def test_ring_checker_examples():
    assert is_ring_word(bits("000101101"), 4)
    assert not is_ring_word(bits("0000"), 2)
    # primitive word of length k is a k-ring word
    assert is_ring_word(bits("0011"), 4)
    assert not is_ring_word(bits("0101"), 4)
    with pytest.raises(ValueError):
        is_ring_word(bits("01"), 3)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1"):
            is_ring_word(bits("0101"), k)


def test_phi_lift_example():
    # order-3 chain 01 ->0 10 ->1 01 ->1 11 ->0 10 ->0 00 ->0 00 ->1 01
    chain = [0b010, 0b101, 0b011, 0b110, 0b100, 0b000, 0b001]
    lifted = _phi_lift(chain, 4)
    assert lifted == [0b0101, 0b1011, 0b0110, 0b1100, 0b1000, 0b0001, 0b0010]


def test_chain_edges_are_connected_and_distinct():
    for k in range(1, 8):
        for n in range(1, (1 << k) + 1):
            chain = compute_chain(k, n)
            assert len(chain) == n
            assert len(set(chain)) == n
            mask = (1 << (k - 1)) - 1
            for e, f in zip(chain, chain[1:] + chain[:1]):
                assert (e & mask) == (f >> 1)


def test_full_length_gives_de_bruijn_word():
    for k in range(1, 7):
        w = ring_word(1 << k, k)
        assert len(cyclic_factors(w, k)) == 1 << k


def test_ring_word_range_validation():
    with pytest.raises(ValueError):
        ring_word(3, 0)
    with pytest.raises(ValueError):
        ring_word(2, 3)
    with pytest.raises(ValueError):
        ring_word(9, 3)
