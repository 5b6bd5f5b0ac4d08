import math
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import char_from_string
from thomae_lab.characteristics import (
    HalfCharacteristic,
    Partition,
    branch_char,
    char_of_set,
    char_sum,
    char_to_partition,
    enumerate_partitions,
    parity,
    partition_char,
    riemann_char,
    set_order_less,
    zero_char,
)


def test_branch_char_table_g2():
    assert str(branch_char(2, 1)) == "[10/00]"
    assert str(branch_char(2, 2)) == "[10/10]"
    assert str(branch_char(2, 3)) == "[01/10]"
    assert str(branch_char(2, 4)) == "[01/11]"
    assert str(branch_char(2, 5)) == "[00/11]"


def test_branch_char_table_g3_middle_row():
    # k = 4 is the generic even row with cut number 2
    assert str(branch_char(3, 4)) == "[010/110]"


def test_branch_char_sum_of_all_vanishes():
    for g in (2, 3, 4, 5):
        total = zero_char(g)
        for k in range(1, 2 * g + 2):
            total = char_sum(total, branch_char(g, k))
        assert total.bits == 0


def test_riemann_char():
    assert str(riemann_char(2)) == "[11/01]"
    assert str(riemann_char(3)) == "[111/101]"
    assert str(riemann_char(1)) == "[1/1]"


def test_char_sum_examples():
    a = char_from_string("[10/00]")
    k = char_from_string("[11/01]")
    assert char_sum(a, a).bits == 0
    assert char_sum(a, zero_char(2)) == a
    assert str(char_sum(a, k)) == "[01/01]"


def test_char_sum_genus_mismatch():
    with pytest.raises(ValueError):
        char_sum(zero_char(2), zero_char(3))


def test_partition_char_examples():
    # [K] is the characteristic of the empty partition
    assert partition_char(Partition.from_set(2, ())) == riemann_char(2)
    assert str(partition_char(Partition.from_set(2, (1,)))) == "[01/01]"
    # Appendix-B label for the genus-3 gradient of theta^{1}
    assert str(partition_char(Partition.from_set(3, (1,)))) == "[011/101]"
    # multiplicity-0 set {1,2} at genus 2: XOR of the table rows, even parity
    c = partition_char(Partition.from_set(2, (1, 2)))
    assert parity(c) == "even"
    assert str(c) == "[11/11]"


def test_multiplicity():
    assert Partition.from_set(3, ()).multiplicity() == 2
    assert Partition.from_set(2, (1, 2)).multiplicity() == 0
    assert Partition.from_set(5, ()).multiplicity() == 3


def test_parity_examples():
    assert parity(char_from_string("[11/01]")) == "odd"  # [K] at g=2
    assert parity(zero_char(3)) == "even"
    assert parity(char_from_string("[111/101]")) == "even"  # multiplicity 2


def test_partition_counts():
    assert len(list(enumerate_partitions(2, 0))) == 10
    assert len(list(enumerate_partitions(2, 1))) == 6
    assert len(list(enumerate_partitions(4, 2))) == 10
    for g in (2, 3, 4, 5):
        for m in range((g + 1) // 2 + 1):
            # closed form: C(2g+1, g) at m = 0, else C(2g+2, g+1-2m)
            count = math.comb(2 * g + 1, g) if m == 0 else math.comb(2 * g + 2, g + 1 - 2 * m)
            assert len(list(enumerate_partitions(g, m))) == count


def test_global_parity_counts():
    for g in (2, 3, 4, 5):
        chars = [p.char() for m in range((g + 1) // 2 + 1) for p in enumerate_partitions(g, m)]
        assert len(chars) == 2 ** (2 * g)
        odd = sum(1 for c in chars if parity(c) == "odd")
        assert odd == 2 ** (g - 1) * (2**g - 1)
        assert len(chars) - odd == 2 ** (g - 1) * (2**g + 1)


def test_parity_multiplicity_coherence():
    for g in (2, 3, 4, 5):
        for m in range((g + 1) // 2 + 1):
            for p in enumerate_partitions(g, m):
                expected = "even" if m % 2 == 0 else "odd"
                assert parity(p.char()) == expected, (g, p)


def test_partition_char_bijection():
    for g in (2, 3, 4, 5):
        seen = {}
        for m in range((g + 1) // 2 + 1):
            for p in enumerate_partitions(g, m):
                c = p.char()
                assert c not in seen, (p, seen.get(c))
                seen[c] = p
        assert len(seen) == 2 ** (2 * g)


def test_char_to_partition_roundtrip():
    for g in (1, 2, 3, 4, 5):
        for m in range((g + 1) // 2 + 1):
            for p in enumerate_partitions(g, m):
                assert char_to_partition(g, p.char()) == p
        # total on all 4^g characteristics, built from outside tuples
        for eps in product((0, 1), repeat=g):
            for eps_prime in product((0, 1), repeat=g):
                c = HalfCharacteristic(eps, eps_prime)
                assert partition_char(char_to_partition(g, c)) == c


def test_char_to_partition_examples():
    assert char_to_partition(2, char_from_string("[11/01]")).part == ()
    assert char_to_partition(2, char_from_string("[01/01]")).part == (1,)


def test_partition_canonicalization_complement():
    # a large part canonicalizes to its complement
    p = Partition.from_set(2, (1, 2, 3, 4))  # complement of {5} plus infinity
    q = Partition.from_set(2, (0, 5))
    assert p == q


def test_set_order():
    assert set_order_less((0, 1, 2), (1, 2, 3))
    assert set_order_less((2, 3), (1, 4))
    assert not set_order_less((1, 4), (2, 3))
    assert not set_order_less((1, 4), (1, 4))
    with pytest.raises(ValueError):
        set_order_less((1,), (1, 2))


@given(st.integers(2, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_char_sum_is_involution(g, data):
    bits = st.tuples(*([st.integers(0, 1)] * g))
    a = HalfCharacteristic(data.draw(bits), data.draw(bits))
    b = HalfCharacteristic(data.draw(bits), data.draw(bits))
    assert char_sum(char_sum(a, b), b) == a


@given(st.integers(2, 4), st.data())
@settings(max_examples=50, deadline=None)
def test_set_order_is_strict_total_order(g, data):
    pool = list(range(0, 2 * g + 2))
    size = data.draw(st.integers(1, g))
    a = tuple(sorted(data.draw(st.sets(st.sampled_from(pool), min_size=size, max_size=size))))
    b = tuple(sorted(data.draw(st.sets(st.sampled_from(pool), min_size=size, max_size=size))))
    if a == b:
        assert not set_order_less(a, b)
    else:
        assert set_order_less(a, b) != set_order_less(b, a)


# --- bit layer against a tuple reference ------------------------------------


def _ref_branch(g, k):
    """[eps_k] as (eps, eps') tuples, read off the table in the module docstring."""
    if k == 0:
        return (0,) * g, (0,) * g
    if k == 2 * g + 1:
        return (1,) * g, (0,) * g
    j = (k + 1) // 2
    ones = j if k % 2 == 0 else j - 1
    return tuple(int(i <= ones) for i in range(1, g + 1)), tuple(int(i == j) for i in range(1, g + 1))


def _ref_char(g, indices):
    """[I] = sum_{i in I} [eps_i] + [K], [K] = sum_k [eps_{2k}], entrywise XOR."""
    eps, eps_prime = [0] * g, [0] * g
    for k in tuple(range(2, 2 * g + 1, 2)) + tuple(indices):
        e, ep = _ref_branch(g, k)
        eps = [x ^ y for x, y in zip(eps, e)]
        eps_prime = [x ^ y for x, y in zip(eps_prime, ep)]
    return tuple(eps), tuple(eps_prime)


def _subsets(n):
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_bit_layer_matches_tuple_reference(g):
    for s in _subsets(2 * g + 2):
        eps, eps_prime = _ref_char(g, s)
        c = char_of_set(g, s)
        assert (c.genus, c.eps, c.eps_prime) == (g, eps, eps_prime), s
        assert partition_char(Partition.from_set(g, s)) == c, s
        dot = sum(x * y for x, y in zip(eps, eps_prime))
        assert parity(c) == ("odd" if dot % 2 else "even"), s
        text = "[" + "".join(map(str, eps_prime)) + "/" + "".join(map(str, eps)) + "]"
        assert str(c) == text
        assert char_from_string(text) == c


def test_equal_characteristics_share_hash():
    a = HalfCharacteristic((1, 0, 1), (0, 1, 1))
    b = char_from_string("[011/101]")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != HalfCharacteristic((1, 0, 1, 0), (0, 1, 1, 0))
    with pytest.raises(AttributeError):
        a.genus = 4
    with pytest.raises(AttributeError):
        a.eps = (0, 0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: char_of_set(3, (8,)),
        lambda: char_of_set(3, (1, -1)),
        lambda: branch_char(3, 8),
        lambda: branch_char(3, -1),
        lambda: Partition.from_set(3, (1, 8)),
        lambda: Partition.from_set(3, (-1,)),
        lambda: Partition(genus=3, part=(2, 1)),
        lambda: Partition(genus=3, part=(1, 2, 3, 4, 5)),
        lambda: HalfCharacteristic((0, 2), (0, 0)),
        lambda: HalfCharacteristic((0, 1), (0,)),
        lambda: char_to_partition(3, zero_char(2)),
    ],
)
def test_inputs_are_still_checked(call):
    with pytest.raises(ValueError):
        call()
