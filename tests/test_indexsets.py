from itertools import combinations

import numpy as np
import pytest

from oracles import complement_finite, drop, replace
from thomae_lab import indexsets
from thomae_lab.harness import SuiteConfig, _subsets, random_curve, run_suite
from thomae_lab.indexsets import (
    finite_mask,
    index_mask,
    index_masks,
    index_rows,
    index_set,
    iset,
    low_indices,
)


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
    # one mask at a time, any size; index_rows takes masks of one size at once
    masks = np.array([0b1011, 0, 0b110, 0b1, 0b11010, 0b110])
    want = [tuple(i for i in range(m.bit_length()) if m >> i & 1) for m in masks.tolist()]
    assert [index_set(m) for m in masks.tolist()] == want == \
        [(0, 1, 3), (), (1, 2), (0,), (1, 3, 4), (1, 2)]
    assert index_set(1 << 70 | 1 << 17 | 1) == (0, 17, 70)
    assert index_rows(masks[[0, 4]]).tolist() == [[0, 1, 3], [1, 3, 4]]
    assert index_masks(index_rows(masks[[2, 5]])).tolist() == [0b110, 0b110]


def members(mask: int) -> list[int]:
    """Oracle: the indices of a mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# index 0 in some masks, popcounts 1 to 6 across the rows
MIXED = np.array([0b1, 0b11, 0b10110, 0b101011, 0b1111110, 0b110100101, 1 << 17 | 0b1001])


def test_low_indices_are_the_smallest_members():
    for k in range(7):
        want = [members(m)[:k] for m in MIXED.tolist() if len(members(m)) >= k]
        got = low_indices(MIXED[np.bitwise_count(MIXED) >= k], k)
        assert got.dtype == np.int64 and got.tolist() == want, k
    # a single int, k = 0, no masks and a 2-d array of masks
    assert low_indices(0b101100, 3).tolist() == [2, 3, 5]
    assert low_indices(finite_mask(3), 7).tolist() == list(range(1, 8))
    assert low_indices(MIXED, 0).shape == (len(MIXED), 0)
    assert low_indices(np.array([], dtype=np.int64), 2).shape == (0, 2)
    square = MIXED[2:6].reshape(2, 2)
    assert low_indices(square, 3).tolist() == [[members(m)[:3] for m in r] for r in square.tolist()]


def test_subsets_are_the_combinations_of_the_members_at_each_rank():
    rng = np.random.default_rng(5)
    for universe in MIXED.tolist():  # one member row, index 0 in some
        size = int(universe).bit_count()
        for k in range(size + 1):
            combos = list(combinations(members(universe), k))
            ranks = np.arange(len(combos))
            got = _subsets(low_indices(universe, size), k, ranks)
            assert got.shape == (len(combos), k) and got.tolist() == [list(c) for c in combos]
    # one member row per rank, all of one size
    universes = np.array([0b10111, 0b111010, 0b110110000, 0b1111], dtype=np.int64)
    for k in range(5):
        ranks = rng.integers(0, len(list(combinations(range(4), k))), size=len(universes))
        want = [list(combinations(members(u), k))[r]
                for u, r in zip(universes.tolist(), ranks.tolist())]
        got = _subsets(low_indices(universes, 4), k, ranks)
        assert got.tolist() == [list(c) for c in want], k
    # no ranks, from one member row and from an empty array of them
    empty = np.array([], dtype=np.int64)
    assert _subsets(low_indices(0b1110, 3), 2, empty).shape == (0, 2)
    assert _subsets(low_indices(empty, 3), 2, empty).shape == (0, 2)


def test_finite_mask():
    assert finite_mask(2) == 0b111110
    assert finite_mask(7) == sum(1 << i for i in range(1, 16))


def test_masks_of_different_sizes_name_their_sizes():
    with pytest.raises(ValueError, match=r"masks hold different numbers of indices: \[2, 3\]"):
        index_rows(np.array([0b110, 0b1110]))
    # a failure is not cached: the next call raises again, and good masks still work
    with pytest.raises(ValueError, match=r"\[1, 2\]"):
        index_rows(np.array([[0b1, 0b110]]))
    with pytest.raises(ValueError, match=r"\[1, 2\]"):
        index_rows(np.array([[0b1, 0b110]]))
    assert index_rows(np.array([0b110, 0b1010])).tolist() == [[1, 2], [1, 3]]


def test_index_rows_are_the_set_bits_of_each_mask():
    rng = np.random.default_rng(3)
    wide = [int(index_masks(rng.choice(63, size=60, replace=False))) for _ in range(6)]
    for masks in (np.array([0]), np.array([1 << i for i in range(63)]), np.array(wide),
                  np.array(wide).reshape(2, 3), np.array([[0b1011, 1 << 62 | 0b101]])):
        rows = index_rows(masks)
        assert rows.dtype == np.int64 and rows.shape[:-1] == masks.shape
        assert rows.reshape(masks.size, -1).tolist() == [members(m) for m in masks.ravel().tolist()]
    assert index_rows(np.array([], dtype=np.int64)).shape == (0, 0)
    with pytest.raises(ValueError, match=r"masks hold different numbers of indices: \[0, 1, 60\]"):
        index_rows(np.array([wide[0], 0, 1 << 60]))


def test_index_mask_is_index_masks_of_one_row():
    rng = np.random.default_rng(4)
    for size in range(8):
        row = rng.choice(63, size=size, replace=False)
        mask = index_mask(row)
        assert type(mask) is int and mask == int(index_masks(row)) == index_mask(row.tolist())
    assert index_mask(i for i in (3, 1)) == 0b1010 and index_mask(()) == 0


def test_cached_rows_are_read_only():
    masks = np.array([0b110, 0b1010, 0b1100])
    for rows in (index_rows(masks), index_rows(masks)):
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 5
    assert index_rows(masks).tolist() == [[1, 2], [1, 3], [2, 3]]


def test_the_cache_keys_on_shape_and_content_not_identity():
    flat = np.array([0b110, 0b1010, 0b1100, 0b11], dtype=np.int64)
    assert index_rows(flat).shape == (4, 2)
    square = flat.reshape(2, 2)  # the same bytes
    assert index_rows(square).shape == (2, 2, 2)
    assert index_rows(square).tolist() == index_rows(flat).reshape(2, 2, 2).tolist()
    # an equal array of another type or another object is the same key
    assert index_rows(flat.astype(np.int32)) is index_rows(flat.copy())
    # the masks may change after a call without changing what it returned
    mutable = flat.copy()
    rows = index_rows(mutable)
    mutable[0] = 0b11000
    assert rows.tolist() == [[1, 2], [1, 3], [2, 3], [0, 1]]
    assert index_rows(mutable).tolist()[0] == [3, 4]


def test_whole_thomae1_draws_hit_the_cache_after_each_genus_first_curve():
    # genera interleaved as in a sweep: after the first curve of each genus,
    # the prefactor's rows are all served by the cache (the records keep
    # their masks, so a run turns none into sets)
    indexsets._rows.cache_clear()
    misses = []
    for seed in (1, 2, 3):
        for g in (2, 3, 4):
            run_suite(SuiteConfig(spec=random_curve(g, seed), relations=("THOMAE1",), seed=seed))
            misses.append(indexsets._rows.cache_info().misses)
    assert misses[0] > 0 and misses[0] < misses[1] < misses[2]
    assert misses[2:] == [misses[2]] * 7, misses
    assert indexsets._rows.cache_info().hits > 0
