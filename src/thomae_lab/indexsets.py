"""Small helpers for the index-set surgery used throughout the relations.

Sets are sorted tuples of branch indices (0 = infinity).  The substitution
notation of the closed-form theta expressions, e.g. I^{(a,b -> c,d)} for
"replace a, b by c, d", maps onto :func:`replace`; J^{(j)} is :func:`drop`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

IndexSet = tuple[int, ...]


def iset(indices: Iterable[int]) -> IndexSet:
    t = tuple(sorted(indices))
    if len(set(t)) != len(t):
        raise ValueError(f"duplicate indices in {t}")
    return t


def drop(s: Iterable[int], *gone: int) -> IndexSet:
    base = iset(s)
    missing = [x for x in gone if x not in base]
    if missing:
        raise ValueError(f"cannot drop {missing} from {base}")
    return tuple(x for x in base if x not in gone)


def add(s: Iterable[int], *new: int) -> IndexSet:
    base = iset(s)
    clash = [x for x in new if x in base]
    if clash:
        raise ValueError(f"{clash} already in {base}")
    return iset(base + tuple(new))


def replace(s: Iterable[int], out_idx: Sequence[int], in_idx: Sequence[int]) -> IndexSet:
    """I^{(out -> in)}: drop out_idx, then add in_idx."""
    s = tuple(s)
    kept = set(s)
    if len(kept) != len(s):
        raise ValueError(f"duplicate indices in {tuple(sorted(s))}")
    missing = [x for x in out_idx if x not in kept]
    if missing:
        raise ValueError(f"cannot drop {missing} from {tuple(sorted(s))}")
    kept.difference_update(out_idx)
    clash = [x for x in in_idx if x in kept]
    if clash:
        raise ValueError(f"{clash} already in {tuple(sorted(kept))}")
    return iset([*kept, *in_idx])


def complement_finite(n_finite: int, s: Iterable[int]) -> IndexSet:
    """Finite indices 1..n_finite not in s (ignores 0 in s)."""
    base = set(iset(s)) - {0}
    return tuple(i for i in range(1, n_finite + 1) if i not in base)
