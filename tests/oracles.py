"""Scalar reference helpers that only the tests read.

The package works on arrays (index masks, batched Vandermonde products,
whole period quadratures); these are the one-set, one-point forms of the
same algebra, kept here as independent oracles for its tests:

- index-set surgery: :func:`drop` (J^{(j)}) and :func:`replace`
  (I^{(a,b -> c,d)}, "replace a, b by c, d") on sorted index tuples;
- branch-point algebra with right ordering (larger index first, so every
  product is positive for sorted real branch points): :func:`vandermonde`,
  :func:`ordered_diff_product` and the elementary symmetric polynomials;
- characteristics as tuples: :func:`char_from_string`, the "[eps'/eps]"
  notation of the paper; :func:`ref_char`, [I] XOR-folded entrywise from
  the branch-point table; :func:`char_tuples` and :func:`parity`;
- :func:`enumerate_partitions`, the list of all canonical partitions of a
  multiplicity, the list-based form of ``harness._partition_masks``, and
  :func:`full_part`, a partition's part with infinity made explicit, the
  tuple form of ``characteristics.completed_part``;
- :func:`ref_collection_rank`, the combinatorial rank of one collection of
  parts by a search over frozensets, the set form of
  ``relations.predicted_collection_rank``;
- :func:`differential_row`, one holomorphic differential at one point of
  the fixed sheet;
- :func:`segment_integrals_loop`, the period quadrature one segment and
  one branch point at a time;
- :func:`gauss_legendre_exact`, the Gauss-Legendre rule to about 48 digits;
- :func:`records`, the rows of a record table as a list, the one way the
  tests read a verifier's records one by one.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from thomae_lab.characteristics import HalfCharacteristic, Partition
from thomae_lab.curve import CurveSpec
from thomae_lab.indexsets import IndexSet, iset
from thomae_lab.relations import RecordTable, VerificationRecord


def drop(s: Iterable[int], *gone: int) -> IndexSet:
    base = iset(s)
    missing = [x for x in gone if x not in base]
    if missing:
        raise ValueError(f"cannot drop {missing} from {base}")
    return tuple(x for x in base if x not in gone)


def complement_finite(n_finite: int, s: Iterable[int]) -> IndexSet:
    """Finite indices 1..n_finite not in s (ignores 0 in s)."""
    base = set(iset(s)) - {0}
    return tuple(i for i in range(1, n_finite + 1) if i not in base)


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


def _check_finite_indexset(spec: CurveSpec, index_set: Iterable[int]) -> tuple[int, ...]:
    idx = tuple(sorted(index_set))
    if len(set(idx)) != len(idx):
        raise ValueError(f"index set {idx} has duplicates")
    if idx and idx[0] == 0:
        raise ValueError("index 0 (infinity) is not allowed in branch-point products")
    if idx and (idx[0] < 0 or idx[-1] > spec.n_finite):
        raise ValueError(f"index set {idx} out of range 1..{spec.n_finite}")
    return idx


def vandermonde(spec: CurveSpec, index_set: Iterable[int]) -> float:
    """Ordered Vandermonde product prod_{i>l in I} (e_i - e_l).

    Right ordering (larger index first) makes the result strictly positive
    for sorted real branch points; an empty or singleton set gives 1.
    """
    idx = _check_finite_indexset(spec, index_set)
    e = spec.branch_points
    out = 1.0
    for a in range(len(idx)):
        for b in range(a):
            out *= e[idx[a] - 1] - e[idx[b] - 1]
    return out


def elementary_symmetric_all(spec: CurveSpec, index_set: Iterable[int]) -> list[float]:
    """[s_0, s_1, ..., s_|I|] of {e_i | i in I}, from one expansion of the
    generating product prod_{i in I} (1 + e_i t) = sum_n s_n t^n."""
    idx = _check_finite_indexset(spec, index_set)
    # Newton-free direct recurrence: expand the generating product.
    coeffs = [1.0] + [0.0] * len(idx)
    for i in idx:
        e = spec.branch_points[i - 1]
        for d in range(len(idx), 0, -1):
            coeffs[d] += e * coeffs[d - 1]
    return coeffs


def elementary_symmetric(spec: CurveSpec, index_set: Iterable[int], n: int) -> float:
    """Elementary symmetric polynomial s_n of {e_i | i in I}.

    s_0 = 1 and s_n = 0 for n > |I|, matching the generating identity
    prod_{i in I} (1 + e_i t) = sum_n s_n t^n.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    coeffs = elementary_symmetric_all(spec, index_set)
    return coeffs[n] if n < len(coeffs) else 0.0


def ordered_diff_product(spec: CurveSpec, left: Iterable[int], right: Iterable[int]) -> float:
    """prod_{a in left, b in right} (e_max - e_min) with right ordering.

    Every factor is written with the larger index first, so the value is
    positive for disjoint sorted index sets.
    """
    lt = _check_finite_indexset(spec, left)
    rt = _check_finite_indexset(spec, right)
    e = spec.branch_points
    out = 1.0
    for a in lt:
        for b in rt:
            if a == b:
                raise ValueError(f"index {a} appears on both sides")
            hi, lo = (a, b) if a > b else (b, a)
            out *= e[hi - 1] - e[lo - 1]
    return out


def char_from_string(text: str) -> HalfCharacteristic:
    """Parse "[e1'e2'.../e1e2...]" (top row eps', bottom row eps) into the
    characteristic with bits eps << g | eps'."""
    body = text.strip().strip("[]")
    top, bot = body.split("/")
    if len(top) != len(bot) or set(top + bot) - {"0", "1"}:
        raise ValueError(f"not a characteristic: {text!r}")
    return HalfCharacteristic(genus=len(bot), bits=int(bot + top, 2))


def char_tuples(c: HalfCharacteristic) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(eps, eps') of a characteristic, read off its bits."""
    digits = tuple(map(int, format(c.bits, f"0{2 * c.genus}b")))
    return digits[: c.genus], digits[c.genus :]


def parity(c: HalfCharacteristic) -> str:
    """'odd' iff eps^t eps' is odd, else 'even'."""
    eps, eps_prime = char_tuples(c)
    return "odd" if sum(x * y for x, y in zip(eps, eps_prime)) % 2 else "even"


def ref_branch(g: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """[eps_k] as (eps, eps') tuples, read off the table in the docstring of
    ``thomae_lab.characteristics``; k = 0 is infinity."""
    if k == 0:
        return (0,) * g, (0,) * g
    if k == 2 * g + 1:
        return (1,) * g, (0,) * g
    j = (k + 1) // 2
    ones = j if k % 2 == 0 else j - 1
    return tuple(int(i <= ones) for i in range(1, g + 1)), tuple(int(i == j) for i in range(1, g + 1))


def ref_char(g: int, indices: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """[I] = sum_{i in I} [eps_i] + [K], [K] = sum_k [eps_{2k}], as (eps, eps')
    tuples folded entrywise by XOR."""
    eps, eps_prime = [0] * g, [0] * g
    for k in tuple(range(2, 2 * g + 1, 2)) + tuple(indices):
        e, ep = ref_branch(g, k)
        eps = [x ^ y for x, y in zip(eps, e)]
        eps_prime = [x ^ y for x, y in zip(eps_prime, ep)]
    return tuple(eps), tuple(eps_prime)


def enumerate_partitions(g: int, m: int) -> list[Partition]:
    """All canonical partitions of multiplicity m as validated ``Partition``
    objects, in lexicographic order: stored part size g + 1 - 2m (infinity on
    the other side), then g - 2m (infinity in the part), at m = 0 only g;
    then ``combinations`` order of the part."""
    sizes = (g,) if m == 0 else tuple(s for s in (g + 1 - 2 * m, g - 2 * m) if s >= 0)
    return [Partition(genus=g, part=t) for size in sizes
            for t in combinations(range(1, 2 * g + 2), size)]


def full_part(p: Partition) -> IndexSet:
    """The stored part of a partition with the infinity index made explicit
    (as 0): infinity joins a part whose size is not congruent to g + 1 mod 2."""
    return (0,) + p.part if len(p.part) % 2 != (p.genus + 1) % 2 else p.part


def ref_collection_rank(g: int, full_parts: Sequence[frozenset]) -> int:
    """Combinatorial rank: the largest subcollection whose every
    subfamily F satisfies |F| <= g - |intersection of F| is independent."""
    parts = list(dict.fromkeys(full_parts))
    n = len(parts)
    best = 0
    for size in range(min(n, g), 0, -1):
        if size <= best:
            break
        for sub in combinations(range(n), size):
            ok = True
            for r in range(2, size + 1):
                for fam in combinations(sub, r):
                    inter = frozenset.intersection(*[parts[t] for t in fam])
                    if r > g - len(inter):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                best = size
                break
    return best


def _sheet_power(spec: CurveSpec, x: float) -> int:
    """p = number of branch points strictly greater than x."""
    return int(np.sum(np.asarray(spec.branch_points) > x))


def differential_row(spec: CurveSpec, n: int, x: float, branch_sign: int = 1) -> complex:
    """Value of du_n = x^{g-n} / (-2y) on the fixed sheet at real x.

    Between consecutive branch points the value is purely real or purely
    imaginary according to the parity of the number of branch points to the
    right of x.
    """
    g = spec.genus
    if not 1 <= n <= g:
        raise ValueError(f"differential index {n} out of range 1..{g}")
    if x in spec.branch_points:
        raise ValueError(f"integrand singular at branch point x={x}")
    e = np.asarray(spec.branch_points)
    p = _sheet_power(spec, x)
    y = branch_sign * (1j**p) * np.sqrt(np.abs(np.prod(x - e)))
    return complex(x ** (g - n) / (-2.0 * y))


def segment_integrals_loop(spec: CurveSpec, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """V[l-1, n-1] = int_{e_l}^{e_{l+1}} x^{g-n} dx / sqrt|f(x)|, l = 1..2g,
    by the given rule after x = m + h sin(theta): per segment, per branch
    point off its ends, per power.  The sums run in long double, so each
    x - e_j keeps the distance of a close pair of branch points to about
    1e-19 absolute, where double precision would lose it to rounding in x."""
    g = spec.genus
    e = np.asarray(spec.branch_points, dtype=np.longdouble)
    pi = np.longdouble("3.141592653589793238462643383279502884")
    theta = 0.5 * pi * nodes.astype(np.longdouble)
    weights = weights.astype(np.longdouble)
    out = np.empty((2 * g, g), dtype=float)
    for l in range(1, 2 * g + 1):
        a, b = e[l - 1], e[l]
        m, h = 0.5 * (a + b), 0.5 * (b - a)
        x = m + h * np.sin(theta)
        rest = np.ones_like(x)
        for j in range(2 * g + 1):
            if j not in (l - 1, l):
                rest *= np.abs(x - e[j])
        core = (0.5 * pi) * weights / np.sqrt(rest)
        for n in range(1, g + 1):
            out[l - 1, n - 1] = np.dot(core, x ** (g - n))
    return out


def gauss_legendre_exact(n: int, bits: int = 160):
    """The n-point Gauss-Legendre rule on [-1, 1] as ascending mpmath
    (nodes, weights), good to about 2^-bits (48 digits).

    Newton's method in x on P_n by its recurrence, in fixed-point Python
    integers scaled by 2^bits (mpmath's own ``GaussLegendre`` does the same
    in mpf numbers, only for n = 3 * 2^k, and 50 times slower), from the
    guesses cos(pi (k - 1/4) / (n + 1/2)); numpy object arrays carry all
    nodes at once.
    """
    import mpmath

    one = 1 << bits

    def legendre(r):  # P_n(r), P_{n-1}(r), fixed point
        prev = np.full(len(r), one, dtype=object)
        cur = r.copy()
        for k in range(2, n + 1):
            prev, cur = cur, ((2 * k - 1) * ((r * cur) >> bits) - (k - 1) * prev) // k
        return cur, prev

    k = np.arange(1, n // 2 + 1)
    guess = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    r = np.array([int(v * 2.0**60) << (bits - 60) for v in guess], dtype=object)
    for _ in range(12):
        p, q = legendre(r)
        # (1 - r^2) P_n'(r) = n (P_{n-1} - r P_n), fixed point
        dp = n * (q - ((r * p) >> bits)) * one // (one - ((r * r) >> bits))
        step = p * one // dp if len(r) else r
        r = r - step
        if all(abs(int(s)) < 1 << 16 for s in step):
            break
    if n % 2:
        r = np.append(r, 0).astype(object)
    p, q = legendre(r)
    with mpmath.workprec(bits + 32):
        x = [mpmath.mpf(int(v)) / one for v in r]
        # 2 / ((1 - x^2) P_n'^2) with (1 - x^2) P_n' = n (P_{n-1} - x P_n)
        w = [2 * (1 - xi**2) / (n * (mpmath.mpf(int(qi)) - xi * int(pi)) / one) ** 2
             for xi, pi, qi in zip(x, p, q)]
        nodes = [-v for v in x] + x[::-1][n % 2:]
    weights = w + w[::-1][n % 2:]
    return nodes, weights


def records(table: RecordTable) -> list[VerificationRecord]:
    """Every row of a record table, in order, through its one row view."""
    return list(table.rows())
