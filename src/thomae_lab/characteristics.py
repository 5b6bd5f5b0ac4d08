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
infinity is written 0 and omitted from the stored canonical form (it is
inferred whenever the stored cardinality has the wrong parity).

Parity convention: a characteristic is odd iff eps^t eps' is odd, so that
multiplicity-1 characteristics are odd and [K] at genus 2 is odd.

Representation: a characteristic is its genus plus one 2g-bit int (eps high,
eps' low).  [I] XOR-folds a per-genus table of [eps_k] (Mumford's eta-map),
the sum is XOR, the parity a popcount; index sets are bit masks.  The
batched relation families index :func:`mask_chars`, one characteristic
per (2g+2)-bit index mask, so [I^{(a -> b)}] is a table lookup at I ^ a ^ b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import xor
from typing import Iterable, Iterator, Sequence

import numpy as np

Bits = tuple[int, ...]


@dataclass(frozen=True, init=False, repr=False)
class HalfCharacteristic:
    """Characteristic [eps] displayed as the 2 x g matrix [eps' over eps]."""

    genus: int
    bits: int

    def __init__(self, eps: Iterable[int], eps_prime: Iterable[int]):
        eps, eps_prime = tuple(eps), tuple(eps_prime)
        if len(eps) != len(eps_prime):
            raise ValueError("eps and eps' must have equal length")
        bits = 0
        for b in eps + eps_prime:
            if b not in (0, 1):
                raise ValueError("characteristic entries must be bits")
            bits = bits << 1 | int(b)
        object.__setattr__(self, "genus", len(eps))
        object.__setattr__(self, "bits", bits)

    @property
    def eps(self) -> Bits:
        return tuple(self.bits >> (2 * self.genus - 1 - i) & 1 for i in range(self.genus))

    @property
    def eps_prime(self) -> Bits:
        return tuple(self.bits >> (self.genus - 1 - i) & 1 for i in range(self.genus))

    def __str__(self) -> str:
        bits = format(self.bits, f"0{2 * self.genus}b")  # eps, then eps'
        return f"[{bits[self.genus:]}/{bits[: self.genus]}]"

    def __repr__(self) -> str:
        return f"HalfCharacteristic(eps={self.eps}, eps_prime={self.eps_prime})"


@lru_cache(maxsize=None)
def _char(g: int, bits: int) -> HalfCharacteristic:
    """The characteristic of genus g with the given 2g bits, built once."""
    c = object.__new__(HalfCharacteristic)
    object.__setattr__(c, "genus", g)
    object.__setattr__(c, "bits", bits)
    return c


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


def zero_char(g: int) -> HalfCharacteristic:
    return _char(g, 0)


def char_sum(a: HalfCharacteristic, b: HalfCharacteristic) -> HalfCharacteristic:
    """Characteristic addition: XOR."""
    if a.genus != b.genus:
        raise ValueError("characteristics of different genus")
    return _char(a.genus, a.bits ^ b.bits)


def branch_char(g: int, k: int) -> HalfCharacteristic:
    """Characteristic [eps_k] of branch point e_k; k = 0 is infinity (zero)."""
    if not 0 <= k <= 2 * g + 1:
        raise ValueError(f"branch index {k} out of range 0..{2 * g + 1}")
    return _char(g, _table(g)[0][k])


def riemann_char(g: int) -> HalfCharacteristic:
    """Characteristic [K] of the vector of Riemann constants."""
    return _char(g, _table(g)[1])


def parity(c: HalfCharacteristic) -> str:
    """'odd' iff eps^t eps' is odd, else 'even'."""
    return "odd" if (c.bits >> c.genus & c.bits).bit_count() & 1 else "even"


@dataclass(frozen=True)
class Partition:
    """Canonical branch-index partition, referred to by its smaller part.

    ``part`` stores finite indices only; infinity (index 0) is inferred when
    len(part) is not congruent to g+1 mod 2.  Use :meth:`from_set` to build
    one from an arbitrary index set.
    """

    genus: int
    part: tuple[int, ...]

    @classmethod
    def from_set(cls, g: int, indices: Iterable[int]) -> "Partition":
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
        g = self.genus
        if len(self.part) % 2 != (g + 1) % 2:
            return (0,) + self.part
        return self.part

    def multiplicity(self) -> int:
        return (self.genus + 1 - len(self.full_part())) // 2

    def char(self) -> HalfCharacteristic:
        return partition_char(self)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.part)) + "}"


@lru_cache(maxsize=None)
def _partition(g: int, mask: int) -> Partition:
    """Canonical partition of the index set whose bit i is index i (0 = infinity)."""
    # Complete with the infinity index when the parity demands it.
    if mask.bit_count() % 2 != (g + 1) % 2:
        mask ^= 1
    comp = mask ^ ((1 << (2 * g + 2)) - 1)
    size, comp_size = mask.bit_count(), comp.bit_count()
    if size > comp_size or (size == comp_size and not mask & 1):  # m = 0: prefer the 0-part
        mask = comp
    return Partition(genus=g, part=tuple(i for i in range(1, 2 * g + 2) if mask >> i & 1))


def partition_char(p: Partition) -> HalfCharacteristic:
    """[I] = sum_{i in I} [eps_i] + [K]; infinity contributes nothing."""
    return char_of_set(p.genus, p.part)


def char_of_set(g: int, indices: Iterable[int]) -> HalfCharacteristic:
    """Characteristic of the partition referred to by an arbitrary index set."""
    branch, bits = _table(g)
    for i in indices:
        if not 0 <= i <= 2 * g + 1:
            raise ValueError(f"branch index {i} out of range 0..{2 * g + 1}")
        bits ^= branch[i]
    return _char(g, bits)


def char_to_partition(g: int, c: HalfCharacteristic) -> Partition:
    """Invert :func:`partition_char`; total on all 2^{2g} characteristics."""
    if c.genus != g:
        raise ValueError("genus mismatch")
    branch, k_bits = _table(g)
    target = c.bits ^ k_bits  # = sum over the part of [eps_i]
    # [eps_{2k}] has eps' = delta_k, so the even-index picks fix eps'.
    mask = 0
    for k in range(1, g + 1):
        if target >> (g - k) & 1:
            mask ^= 1 << 2 * k
            target ^= branch[2 * k]
    # [eps_{2k}] + [eps_{2k-1}] has eps' = 0, eps = delta_k: fix eps.
    for k in range(1, g + 1):
        if target >> (2 * g - k) & 1:
            mask ^= 0b11 << (2 * k - 1)
    return _partition(g, mask)


def part_sizes(g: int, m: int) -> tuple[int, ...]:
    """Sizes of the stored parts of the multiplicity-m partitions, in the
    order :func:`enumerate_partitions` lists them."""
    if not 0 <= m <= (g + 1) // 2:
        raise ValueError(f"multiplicity {m} out of range 0..{(g + 1) // 2}")
    # Stored sizes g+1-2m (infinity on the J side) and g-2m (infinity in
    # part); at m = 0 the canonical part is the one holding infinity.
    return (g,) if m == 0 else tuple(s for s in (g + 1 - 2 * m, g - 2 * m) if s >= 0)


def enumerate_partitions(g: int, m: int) -> Iterator[Partition]:
    """All canonical partitions of multiplicity m, in lexicographic order:
    by part size as :func:`part_sizes` lists them, then in
    ``combinations`` order of the part."""
    idx = range(1, 2 * g + 2)
    for size in part_sizes(g, m):
        yield from (Partition(genus=g, part=t) for t in combinations(idx, size))


def set_order_less(a: Sequence[int], b: Sequence[int]) -> bool:
    """Order of index sets: compare highest indices first, 0 is smallest."""
    ta, tb = tuple(sorted(a, reverse=True)), tuple(sorted(b, reverse=True))
    if len(ta) != len(tb):
        raise ValueError("only sets of equal cardinality are comparable")
    return ta < tb
