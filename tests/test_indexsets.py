from itertools import combinations

import numpy as np
import pytest

from oracles import complement_finite, drop, replace
from thomae_lab.indexsets import finite_mask, index_masks, index_rows, index_sets, iset


def add(s, *new):
    """Reference for the insertion half of ``replace``: validate, then add."""
    base = iset(s)
    clash = [x for x in new if x in base]
    if clash:
        raise ValueError(f"{clash} already in {base}")
    return iset(base + tuple(new))


def test_iset_sorts_and_rejects_duplicates():
    assert iset([5, 0, 3]) == (0, 3, 5)
    assert iset(x for x in (2, 1)) == (1, 2)
    assert iset([]) == ()
    with pytest.raises(ValueError, match="duplicate indices"):
        iset([1, 2, 1])


def test_drop():
    assert drop((4, 1, 3), 3) == (1, 4)
    assert drop((1, 2, 3), 1, 3) == (2,)
    assert drop((1, 2)) == (1, 2)
    with pytest.raises(ValueError, match=r"cannot drop \[5\]"):
        drop((1, 2, 3), 2, 5)
    with pytest.raises(ValueError, match="duplicate indices"):
        drop((1, 1, 2), 2)


def test_add():
    assert add((3, 1), 2, 0) == (0, 1, 2, 3)
    assert add((), 4) == (4,)
    with pytest.raises(ValueError, match=r"\[3\] already in \(1, 3\)"):
        add((1, 3), 2, 3)
    with pytest.raises(ValueError, match="duplicate indices"):
        add((1,), 2, 2)
    with pytest.raises(ValueError, match="duplicate indices"):
        add((1, 1), 2)


def test_replace():
    assert replace((1, 3, 5, 7), (3, 7), (8, 2)) == (1, 2, 5, 8)
    assert replace((5, 1, 3), (1,), (0,)) == (0, 3, 5)
    assert replace((1, 2), (2,), (2,)) == (1, 2)
    assert replace((1, 2), (), ()) == (1, 2)


def test_replace_errors():
    with pytest.raises(ValueError, match=r"cannot drop \[4\] from \(1, 2, 3\)"):
        replace((3, 2, 1), (2, 4), (5,))
    with pytest.raises(ValueError, match=r"\[3\] already in \(1, 3\)"):
        replace((1, 2, 3), (2,), (3,))
    with pytest.raises(ValueError, match="duplicate indices"):
        replace((1, 1, 2), (2,), (3,))
    with pytest.raises(ValueError, match="duplicate indices"):
        replace((1, 2), (2,), (4, 4))


def test_replace_matches_drop_then_add():
    universe = range(7)
    for s in combinations(universe, 3):
        for out in combinations(s, 2):
            rest = [x for x in universe if x not in s]
            for new in combinations(rest + list(out[:1]), 2):
                assert replace(s[::-1], out, new) == add(drop(s, *out), *new)


def test_complement_finite():
    assert complement_finite(5, (0, 2, 4)) == (1, 3, 5)
    assert complement_finite(3, ()) == (1, 2, 3)


def test_index_sets_of_masks_of_mixed_sizes():
    # grouped by size through index_rows, returned in the order of the masks
    masks = np.array([0b1011, 0, 0b110, 0b1, 0b11010, 0b110])
    want = [tuple(i for i in range(m.bit_length()) if m >> i & 1) for m in masks.tolist()]
    assert index_sets(masks) == want == [(0, 1, 3), (), (1, 2), (0,), (1, 3, 4), (1, 2)]
    assert index_sets(np.array([], dtype=np.int64)) == []
    assert index_rows(masks[[0, 4]]).tolist() == [[0, 1, 3], [1, 3, 4]]
    assert index_masks(index_rows(masks[[2, 5]])).tolist() == [0b110, 0b110]


def test_finite_mask():
    assert finite_mask(2) == 0b111110
    assert finite_mask(7) == sum(1 << i for i in range(1, 16))
