"""Small helpers for the index-set bookkeeping of the relations.

Sets are sorted tuples of branch indices (0 = infinity).  Binding rows and
array code hold a set as its bit mask (bit i = index i): :func:`index_masks`
builds masks from index rows, :func:`index_rows` and :func:`index_sets` turn
them back into ascending rows or tuples, and :func:`finite_mask` is the set
of all finite indices, the universe of every complement J = finite ^ I.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

IndexSet = tuple[int, ...]


def iset(indices: Iterable[int]) -> IndexSet:
    t = tuple(sorted(indices))
    if len(set(t)) != len(t):
        raise ValueError(f"duplicate indices in {t}")
    return t


def finite_mask(g: int) -> int:
    """Mask of the finite indices 1..2g+1."""
    return (1 << 2 * g + 2) - 2


def index_rows(masks: np.ndarray) -> np.ndarray:
    """The indices of every mask of an int array, ascending along a new
    last axis; every mask must hold the same number of indices."""
    masks = np.asarray(masks)
    bits = masks[..., None] >> np.arange(int(masks.max(initial=0)).bit_length()) & 1
    width = int(bits.sum(axis=-1).max(initial=0))
    return np.nonzero(bits)[-1].reshape(bits.shape[:-1] + (width,))


def index_masks(idx: np.ndarray) -> np.ndarray:
    """Bit mask of the index set along the last axis of an int array."""
    return np.sum(np.left_shift(1, idx), axis=-1)


def index_sets(masks: np.ndarray) -> list[tuple[int, ...]]:
    """The ascending index set of every mask of a 1-d int array, as tuples:
    :func:`index_rows` over the masks of each size at once."""
    masks = np.asarray(masks)
    sizes = np.bitwise_count(masks)
    out = [()] * len(masks)
    for size in set(sizes.tolist()):
        at = np.flatnonzero(sizes == size)
        for i, row in zip(at.tolist(), index_rows(masks[at]).tolist()):
            out[i] = tuple(row)
    return out
