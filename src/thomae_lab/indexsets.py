"""Small helpers for the index-set bookkeeping of the relations.

Sets are sorted tuples of branch indices (0 = infinity).  Binding rows and
array code hold a set as its bit mask (bit i = index i): :func:`index_masks`
builds masks from index rows, :func:`index_rows` and :func:`index_sets` turn
them back into ascending rows or tuples, :func:`low_indices` gives the k
smallest indices of each mask, and :func:`finite_mask` is the set of all
finite indices, the universe of every complement J = finite ^ I.

:func:`index_rows` and :func:`index_sets` are pure functions of their
masks, and a run asks them for the same masks again and again: every curve
of a genus reads the same whole binding draws, and the Thomae prefactor and
the records each turn them back into rows.  Both keep their last 16 results
in an ``lru_cache`` keyed by the bytes and shape of the masks as int64 (the
content, never the identity of an array), enough for the three genera of a
sweep not to evict each other.  The cached rows are read-only, and
:func:`index_sets` returns a fresh list of the cached tuples.
:func:`low_indices` is uncached: it serves the binding draws, whose masks
are new to every draw and can number a million, and costs k bit steps.
"""

from __future__ import annotations

from functools import lru_cache
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
    last axis; every mask must hold the same number of indices.  Read-only:
    the result may be the cached array of an earlier call."""
    masks = np.asarray(masks, dtype=np.int64)
    return _rows(masks.tobytes(), masks.shape)


@lru_cache(maxsize=16)
def _rows(masks: bytes, shape: tuple[int, ...]) -> np.ndarray:
    # a copy: a view would keep np.nonzero's whole (N, ndim) array alive in the cache
    rows = _index_rows(np.frombuffer(masks, dtype=np.int64).reshape(shape)).copy()
    rows.flags.writeable = False
    return rows


def _index_rows(masks: np.ndarray) -> np.ndarray:
    bits = masks[..., None] >> np.arange(int(masks.max(initial=0)).bit_length()) & 1
    sizes = bits.sum(axis=-1)
    width = int(sizes.max(initial=0))
    rows = np.nonzero(bits)[-1]
    if len(rows) != width * sizes.size:  # no mask holds more than width indices
        found = sorted(set(sizes.ravel().tolist()))
        raise ValueError(f"masks hold different numbers of indices: {found}")
    return rows.reshape(sizes.shape + (width,))


def low_indices(masks, k: int) -> np.ndarray:
    """The k smallest indices of every mask of an int array, or of a single
    int, ascending along a new last axis; every mask must hold at least k."""
    rest = np.asarray(masks, dtype=np.int64)
    out = np.empty(rest.shape + (k,), dtype=np.int64)
    for t in range(k):
        low = rest & -rest
        out[..., t] = np.bitwise_count(low - 1)  # the index of the lowest bit
        rest = rest ^ low
    return out


def index_masks(idx: np.ndarray) -> np.ndarray:
    """Bit mask of the index set along the last axis of an int array."""
    return np.sum(np.left_shift(1, idx), axis=-1)


def index_sets(masks: np.ndarray) -> list[tuple[int, ...]]:
    """The ascending index set of every mask of a 1-d int array, as tuples:
    :func:`index_rows` over the masks of each size at once.  A fresh list
    of the tuples cached for these masks."""
    masks = np.asarray(masks, dtype=np.int64)
    return list(_sets(masks.tobytes(), masks.shape))


@lru_cache(maxsize=16)
def _sets(masks: bytes, shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    masks = np.frombuffer(masks, dtype=np.int64).reshape(shape)
    sizes = np.bitwise_count(masks)
    out = [()] * len(masks)
    for size in set(sizes.tolist()):
        at = np.flatnonzero(sizes == size)
        for i, row in zip(at.tolist(), _index_rows(masks[at]).tolist()):
            out[i] = tuple(row)
    return tuple(out)
