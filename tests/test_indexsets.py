from itertools import combinations

import pytest

from thomae_lab.indexsets import add, complement_finite, drop, iset, replace


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
