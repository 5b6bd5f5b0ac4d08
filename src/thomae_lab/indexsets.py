"""Small helpers for the index-set bookkeeping of the relations.

Sets are sorted tuples of distinct branch indices (0 = infinity).  Binding
rows and array code hold a set as its bit mask (bit i = index i).  Masks are
built in one place, :func:`index_mask` for one set, the one checked door (a
negative or repeated index raises ``ValueError``), and :func:`index_masks`
for the index rows of an array, and read in one: :func:`low_indices` gives
the k smallest indices of each mask of an array, and :func:`index_rows` is
:func:`low_indices` at the masks' common size.  :func:`index_set` turns one
mask into its tuple, and :func:`finite_mask` is the set of all finite
indices, the universe of every complement J = finite ^ I.

:func:`index_rows` is a pure function of its masks, and a run asks it for
the same masks again and again: every curve of a genus reads the same whole
binding draws, and the Thomae prefactor turns them back into rows.  It
keeps its last 16 results in an ``lru_cache`` keyed by the bytes and shape
of the masks as int64 (the content, never the identity of an array),
enough for the three genera of a sweep not to evict each other; the cached
rows are read-only.  Records keep their sets as masks, so no run turns a
mask into a tuple: :func:`index_set` serves the report writer, the record
rows and error messages, and is uncached.  :func:`low_indices` is uncached
too: it serves the binding draws, whose masks are new to every draw and can
number a million, and costs k bit steps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

IndexSet = tuple[int, ...]


def iset(indices: Iterable[int]) -> IndexSet:
    return index_set(index_mask(indices))


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
    masks = np.frombuffer(masks, dtype=np.int64).reshape(shape)
    sizes = np.bitwise_count(masks)
    width = int(sizes.max(initial=0))
    if np.any(sizes != width):
        found = sorted(set(sizes.ravel().tolist()))
        raise ValueError(f"masks hold different numbers of indices: {found}")
    rows = low_indices(masks, width)
    rows.flags.writeable = False
    return rows


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


def index_mask(indices: Iterable[int]) -> int:
    """Bit mask of one index set; a negative or repeated index raises."""
    t = tuple(map(int, indices))
    if min(t, default=0) < 0:
        raise ValueError(f"negative index in {t}")
    mask = sum(1 << i for i in t)
    if mask.bit_count() != len(t):
        raise ValueError(f"duplicate indices in {tuple(sorted(t))}")
    return mask


def index_masks(idx: np.ndarray) -> np.ndarray:
    """Bit mask of the index set along the last axis of an int array."""
    return np.sum(np.left_shift(1, idx), axis=-1)


def index_set(mask: int) -> IndexSet:
    """The ascending index set of one mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)
