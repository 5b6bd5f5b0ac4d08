"""The bit model of characteristics ([I] as XOR-folded bits, one table
entry per index mask) against the tuple reference of ``oracles``."""

import math
from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import char_from_string, char_tuples, enumerate_partitions, parity, ref_char
from thomae_lab.characteristics import (
    Partition,
    _char,
    _table,
    char_of_set,
    mask_chars,
    part_sizes,
)
from thomae_lab.harness import _mask, _partition_masks


def _branch(g, k):
    return _char(g, _table(g)[0][k])


def _riemann(g):
    return _char(g, _table(g)[1])


def _part_char(p: Partition):
    """[I] of a partition, read from the mask table (infinity adds nothing)."""
    return _char(p.genus, int(mask_chars(p.genus)[_mask(p.part)]))


def _all_partitions(g):
    return [(m, p) for m in range((g + 1) // 2 + 1) for p in enumerate_partitions(g, m)]


def test_branch_char_table_g2():
    assert str(_branch(2, 1)) == "[10/00]"
    assert str(_branch(2, 2)) == "[10/10]"
    assert str(_branch(2, 3)) == "[01/10]"
    assert str(_branch(2, 4)) == "[01/11]"
    assert str(_branch(2, 5)) == "[00/11]"


def test_branch_char_table_g3_middle_row():
    # k = 4 is the generic even row with cut number 2
    assert str(_branch(3, 4)) == "[010/110]"


def test_branch_char_sum_of_all_vanishes():
    for g in (2, 3, 4, 5):
        assert _table(g)[0][0] == 0  # infinity
        assert reduce(xor, _table(g)[0][1:]) == 0


def test_riemann_char():
    assert str(_riemann(2)) == "[11/01]"
    assert str(_riemann(3)) == "[111/101]"
    assert str(_riemann(1)) == "[1/1]"
    for g in (1, 2, 3, 4, 5):
        # [K] is the characteristic of the empty index set
        assert mask_chars(g)[0] == _table(g)[1]


def test_char_sum_examples():
    a = char_from_string("[10/00]")
    k = char_from_string("[11/01]")
    assert a.bits ^ a.bits == 0
    assert _char(2, a.bits ^ 0) == a
    assert str(_char(2, a.bits ^ k.bits)) == "[01/01]"


def test_partition_char_examples():
    # [K] is the characteristic of the empty partition
    assert _part_char(Partition.from_set(2, ())) == _riemann(2)
    assert str(_part_char(Partition.from_set(2, (1,)))) == "[01/01]"
    # Appendix-B label for the genus-3 gradient of theta^{1}
    assert str(_part_char(Partition.from_set(3, (1,)))) == "[011/101]"
    # multiplicity-0 set {1,2} at genus 2: XOR of the table rows, even parity
    c = _part_char(Partition.from_set(2, (1, 2)))
    assert parity(c) == "even"
    assert str(c) == "[11/11]"
    assert c == char_of_set(2, (1, 2))


def test_multiplicity():
    assert Partition.from_set(3, ()).multiplicity() == 2
    assert Partition.from_set(2, (1, 2)).multiplicity() == 0
    assert Partition.from_set(5, ()).multiplicity() == 3


def test_parity_examples():
    assert parity(char_from_string("[11/01]")) == "odd"  # [K] at g=2
    assert parity(_char(3, 0)) == "even"
    assert parity(char_from_string("[111/101]")) == "even"  # multiplicity 2


def test_partition_counts():
    assert len(enumerate_partitions(2, 0)) == 10
    assert len(enumerate_partitions(2, 1)) == 6
    assert len(enumerate_partitions(4, 2)) == 10
    for g in (2, 3, 4, 5):
        for m in range((g + 1) // 2 + 1):
            parts = enumerate_partitions(g, m)
            # closed form: C(2g+1, g) at m = 0, else C(2g+2, g+1-2m)
            count = math.comb(2 * g + 1, g) if m == 0 else math.comb(2 * g + 2, g + 1 - 2 * m)
            assert len(parts) == count
            assert sorted({len(p.part) for p in parts}, reverse=True) == list(part_sizes(g, m))
            assert all(p.multiplicity() == m for p in parts)
            # the run's unranking lists the same partitions in the same order
            masks = _partition_masks(g, m, np.arange)
            assert masks.tolist() == [_mask(p.part) for p in parts]


def test_global_parity_counts():
    for g in (2, 3, 4, 5):
        chars = [_part_char(p) for _, p in _all_partitions(g)]
        assert len(chars) == 2 ** (2 * g)
        odd = sum(1 for c in chars if parity(c) == "odd")
        assert odd == 2 ** (g - 1) * (2**g - 1)
        assert len(chars) - odd == 2 ** (g - 1) * (2**g + 1)


def test_parity_multiplicity_coherence():
    for g in (2, 3, 4, 5):
        for m, p in _all_partitions(g):
            expected = "even" if m % 2 == 0 else "odd"
            assert parity(_part_char(p)) == expected, (g, p)


def test_partition_char_bijection():
    for g in (2, 3, 4, 5):
        seen = {}
        for _, p in _all_partitions(g):
            c = _part_char(p)
            assert c not in seen, (p, seen.get(c))
            seen[c] = p
        assert len(seen) == 2 ** (2 * g)


def test_char_to_partition_roundtrip():
    """Every index mask I has the characteristic of its canonical partition,
    so the characteristic fixes the partition: mask_chars, Partition.from_set
    and the bijection above agree on all 2^(2g+2) masks."""
    for g in (1, 2, 3, 4, 5):
        table = mask_chars(g)
        inverse = {_part_char(p).bits: p for _, p in _all_partitions(g)}
        assert sorted(inverse) == list(range(4**g))  # total on all 4^g characteristics
        for mask in range(1 << (2 * g + 2)):
            p = Partition.from_set(g, [i for i in range(2 * g + 2) if mask >> i & 1])
            assert inverse[int(table[mask])] == p, (g, mask)


def test_char_to_partition_examples():
    inverse = {_part_char(p): p for _, p in _all_partitions(2)}
    assert inverse[char_from_string("[11/01]")].part == ()
    assert inverse[char_from_string("[01/01]")].part == (1,)


def test_partition_canonicalization_complement():
    # a large part canonicalizes to its complement
    p = Partition.from_set(2, (1, 2, 3, 4))  # complement of {5} plus infinity
    q = Partition.from_set(2, (0, 5))
    assert p == q


@given(st.integers(2, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_char_sum_is_involution(g, data):
    """XOR of the bits is the entrywise sum mod 2 of (eps, eps')."""
    a = _char(g, data.draw(st.integers(0, 4**g - 1)))
    b = _char(g, data.draw(st.integers(0, 4**g - 1)))
    s = _char(g, a.bits ^ b.bits)
    assert _char(g, s.bits ^ b.bits) == a
    for x, y, z in zip(char_tuples(a), char_tuples(b), char_tuples(s)):
        assert tuple(i ^ j for i, j in zip(x, y)) == z


# --- bit layer against a tuple reference ------------------------------------


def _subsets(n):
    for mask in range(1 << n):
        yield mask, tuple(i for i in range(n) if mask >> i & 1)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_bit_layer_matches_tuple_reference(g):
    table = mask_chars(g)
    for mask, s in _subsets(2 * g + 2):
        eps, eps_prime = ref_char(g, s)
        c = char_of_set(g, s)
        assert c.genus == g and char_tuples(c) == (eps, eps_prime), s
        assert c.eps_prime == eps_prime, s
        assert table[mask] == c.bits and _char(g, c.bits) is c, s
        assert _part_char(Partition.from_set(g, s)) == c, s
        # the run's phase i^popcount(eps & eps') carries the parity
        dot = sum(x * y for x, y in zip(eps, eps_prime))
        assert (c.bits >> g & c.bits).bit_count() % 2 == dot % 2, s
        assert parity(c) == ("odd" if dot % 2 else "even"), s
        text = "[" + "".join(map(str, eps_prime)) + "/" + "".join(map(str, eps)) + "]"
        assert str(c) == text
        assert char_from_string(text) == c


def test_equal_characteristics_share_hash():
    a = _char(3, 0b101011)
    b = char_from_string("[011/101]")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != _char(4, 0b10100110)  # eps = 1010, eps' = 0110
    with pytest.raises(AttributeError):
        a.genus = 4
    with pytest.raises(AttributeError):
        a.bits = 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: char_of_set(3, (8,)),
        lambda: char_of_set(3, (1, -1)),
        lambda: Partition(genus=3, part=(0, 1)),
        lambda: Partition(genus=3, part=(1, 8)),
        lambda: Partition.from_set(3, (1, 8)),
        lambda: Partition.from_set(3, (-1,)),
        lambda: Partition(genus=3, part=(2, 1)),
        lambda: Partition(genus=3, part=(1, 2, 3, 4, 5)),
        lambda: part_sizes(3, 3),
        lambda: part_sizes(3, -1),
        lambda: Partition(genus=3, part=(1, 1)),
    ],
)
def test_inputs_are_still_checked(call):
    with pytest.raises(ValueError):
        call()
