"""Half-period characteristics and their branch-point partition dictionary.

A characteristic is a pair of length-g bit vectors (eps, eps_prime) labelling
the half-period eps/2 + tau eps'/2.  On a hyperelliptic curve with branch
points e_1 < ... < e_{2g+1} and e_0 = infinity, every characteristic
corresponds to a splitting of the 2g+2 branch-point indices into two parts;
the correspondence is realised by the Abel images of the branch points over
Baker's homology basis:

    [eps_{2k}]   : eps' = delta_k, eps = 1^k 0^{g-k}      (k = 1..g)
    [eps_{2k-1}] : eps' = delta_k, eps = 1^{k-1} 0^{g-k+1}
    [eps_{2g+1}] : eps' = 0,       eps = 1^g
    [eps_0]      = 0

and [K] = sum_k [eps_{2k}] is the characteristic of the vector of Riemann
constants.  A partition is referred to by its smaller part; the index of
infinity is written 0 and omitted from the stored canonical form.  One
parity rule, :func:`completed_part`, restores it: the infinity index joins
a part whose size is not congruent to g + 1 mod 2, and the multiplicity of
the completed part P is m = (g + 1 - |P|) / 2.

Parity convention: a characteristic is odd iff eps^t eps' is odd, so that
multiplicity-1 characteristics are odd and [K] at genus 2 is odd.

Representation: a characteristic is its genus plus one 2g-bit int (eps high,
eps' low); the sum of characteristics is XOR and the parity a popcount.
[I] XOR-folds a per-genus table of [eps_k] (Mumford's eta-map, *Tata
Lectures on Theta II*, ch. IIIa).  The batched relation families index
:func:`mask_chars`, one characteristic per (2g+2)-bit index mask, so
[I^{(a -> b)}] is a table lookup at I ^ a ^ b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor
from typing import Iterable

import numpy as np

from .indexsets import index_mask, index_set


@dataclass(frozen=True)
class HalfCharacteristic:
    """Characteristic [eps] displayed as the 2 x g matrix [eps' over eps]."""

    genus: int
    bits: int  # eps << g | eps'

    @property
    def eps_prime(self) -> tuple[int, ...]:
        """eps' as a tuple.  The benchmark's tracer (bench/layers.py) keys
        ``theta.lattice.classes`` and the ``theta.lattice`` span on it."""
        return tuple(self.bits >> (self.genus - 1 - i) & 1 for i in range(self.genus))

    def __str__(self) -> str:
        bits = format(self.bits, f"0{2 * self.genus}b")  # eps, then eps'
        return f"[{bits[self.genus:]}/{bits[: self.genus]}]"


@lru_cache(maxsize=None)
def _char(g: int, bits: int) -> HalfCharacteristic:
    """The characteristic of genus g with the given 2g bits, built once."""
    return HalfCharacteristic(g, bits)


@lru_cache(maxsize=None)
def _table(g: int) -> tuple[tuple[int, ...], int]:
    """Bits of [eps_k] for k = 0..2g+1, and bits of [K]."""
    ones = (1 << g) - 1
    branch = [0]
    for k in range(1, 2 * g + 1):
        j = (k + 1) // 2  # cut number
        n = j if k % 2 == 0 else j - 1  # leading ones of eps
        branch.append((ones >> (g - n)) << (2 * g - n) | 1 << (g - j))
    branch.append(ones << g)  # k = 2g+1: eps = 1^g, eps' = 0
    return tuple(branch), reduce(xor, branch[2 : 2 * g + 1 : 2], 0)


@lru_cache(maxsize=None)
def mask_chars(g: int) -> np.ndarray:
    """Bits of [I] for every index mask I (bit i is index i, 0 = infinity).

    Entry I is [K] XOR-folded with [eps_i] over the set bits of I, as
    :func:`char_of_set` folds; 2^(2g+2) entries, read-only.
    """
    branch, k_bits = _table(g)
    out = np.array([k_bits], dtype=np.intp)
    for b in branch:  # masks with bit i set follow those without
        out = np.concatenate([out, out ^ b])
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Partition:
    """Canonical branch-index partition, referred to by its smaller part.

    ``part`` stores finite indices only; :func:`completed_part` infers
    infinity (index 0).  Use :meth:`from_set` to build one from any index set.
    """

    genus: int
    part: tuple[int, ...]

    @classmethod
    def from_set(cls, g: int, indices: Iterable[int]) -> "Partition":
        """The canonical partition of an index set.  Also a traced entry
        point of the benchmark (bench/layers.py): ``characteristics.self_s``
        and ``characteristics.calls`` count its calls."""
        mask = 0
        for i in indices:
            if not 0 <= i <= 2 * g + 1:
                raise ValueError(f"index {i} out of range 0..{2 * g + 1}")
            mask |= 1 << i
        return _partition(g, mask)

    def __post_init__(self):
        g = self.genus
        if self.part != tuple(sorted(set(self.part))):
            raise ValueError("part must be a sorted duplicate-free tuple")
        if self.part and not (1 <= self.part[0] and self.part[-1] <= 2 * g + 1):
            raise ValueError("part indices out of range")
        if len(self.full_part()) > g + 1:
            raise ValueError("part is not the smaller side of its partition")

    def full_part(self) -> tuple[int, ...]:
        """The part with the infinity index made explicit (as 0)."""
        return index_set(completed_part(self.genus, index_mask(self.part))[0])

    def multiplicity(self) -> int:
        return completed_part(self.genus, index_mask(self.part))[1]

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.part)) + "}"


@lru_cache(maxsize=None)
def _partition(g: int, mask: int) -> Partition:
    """Canonical partition of the index set whose bit i is index i (0 = infinity)."""
    mask = completed_part(g, mask)[0]
    comp = mask ^ ((1 << (2 * g + 2)) - 1)
    size, comp_size = mask.bit_count(), comp.bit_count()
    if size > comp_size or (size == comp_size and not mask & 1):  # m = 0: prefer the 0-part
        mask = comp
    return Partition(genus=g, part=index_set(mask & ~1))


def completed_part(g: int, masks):
    """The parity rule for an int array of index masks, or one int: bit 0
    (the infinity index) toggled in every mask whose size is not congruent to
    g + 1 mod 2, and the multiplicity m = (g + 1 - |P|) / 2 of each completed
    mask P, negative when P is the larger part.  A mask that holds index 0
    keeps its characteristic, as [eps_0] = 0.  Python ints for an int."""
    count = (int.bit_count if isinstance(masks, int)
             else lambda x: np.bitwise_count(x).astype(np.int64))
    full = masks ^ (count(masks) % 2 != (g + 1) % 2)
    return full, (g + 1 - count(full)) // 2


def char_of_set(g: int, indices: Iterable[int]) -> HalfCharacteristic:
    """Characteristic of the partition referred to by an arbitrary index set.
    Kept for the scalar lookups :meth:`CurveContext.const` and
    :meth:`CurveContext.deriv`; the benchmark (bench/layers.py) patches it
    where ``context`` imports it, and ``characteristics.self_s`` and
    ``characteristics.calls`` count its calls."""
    branch, bits = _table(g)
    for i in indices:
        if not 0 <= i <= 2 * g + 1:
            raise ValueError(f"branch index {i} out of range 0..{2 * g + 1}")
        bits ^= branch[i]
    return _char(g, bits)


def part_sizes(g: int, m: int) -> tuple[int, ...]:
    """Sizes of the stored parts of the multiplicity-m partitions, in the
    order ``harness._partition_masks`` lists its blocks."""
    if not 0 <= m <= (g + 1) // 2:
        raise ValueError(f"multiplicity {m} out of range 0..{(g + 1) // 2}")
    # Stored sizes g+1-2m (infinity on the J side) and g-2m (infinity in
    # part); at m = 0 the canonical part is the one holding infinity.
    return (g,) if m == 0 else tuple(s for s in (g + 1 - 2 * m, g - 2 * m) if s >= 0)
