"""Closed-form right-hand sides of the Thomae formulas, with their phases.

The first formula expresses a theta constant with non-singular even
characteristic through branch points and det(omega); the second and the
general one do the same for the order-m derivative tensors of singular
characteristics.  With sorted real branch points and right ordering all
quartic radicands are positive, and (det omega / pi^g)^{1/2} is taken once
with the principal branch.  Each formula then holds with a predicted
phase, which is folded into its right side here and nowhere else:

* m = 0: +1.  The first formula's constant is fixed in Mumford, *Tata
  Lectures on Theta II* (1984), ch. IIIa §8; with the sheet convention
  y = i^p sqrt|f| and tau = iY of :mod:`periods` it is +1.  Measured on
  ``random_curve(g, s)``, g = 2..7 at s = 1-3 and g = 8 at s = 2: all
  50,662 ratios theta[I_0] / rhs(I_0) are within 2.5e-11 of +1.
* m >= 1: the general formula, the source paper's main result, is stated
  with a constant eps, an eighth root of unity.  In these conventions eps
  is (-1)^{m(m+1)/2}, read off a measurement, not derived: on the same
  curves it is -1 in all 5,047 gradient records (m = 1), -1 in all 263
  records at m = 2 and +1 in all 125 at m = 3.  No family reads m >= 4.

The general formula covers every m >= 1, the second formula (m = 1)
included: a multiplicity-m partition with finite part A is promoted to a
multiplicity-0 set I_0 = A + K by any finite K of cardinality 2m-1 or 2m
taken from the complement, and

    d^m theta[A] / dv_{n_1}..dv_{n_m}
      = (-1)^{m(m+1)/2} (det omega/pi^g)^{1/2} Delta(A)^{1/4} Delta(B)^{1/4}
        * sum over ordered distinct (p_1..p_m) in K of
          prod_i  [ sum_j (-1)^{j-1} s_{j-1}(A + K - p_i) omega_{j, n_i} ]
                  / prod_{k in K - {p_1..p_m}} (e_{p_i} - e_k),

with B the finite complement of A.  The value is independent of the choice
of K, which the verification suite checks separately.  At m = 1 with
|K| = 1 the sum is the single s-vector of A, the closed second Thomae form.

:func:`general_thomae_batch` is the one kernel: for an array of (A, K)
masks with one |A| it builds the s-vectors, the prefactors and the
ordered-tuple sum as array code, and returns the direct and the ratio-form
symmetric (g,)^m tensors of every row.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, permutations
from typing import Iterable

import numpy as np

from .characteristics import Partition
from .context import CurveContext
from .indexsets import finite_mask, index_mask, index_rows, iset


@lru_cache(maxsize=None)
def _pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions (i, l), i > l, of the pairs of a set of ``size``."""
    return np.tril_indices(size, -1)


@lru_cache(maxsize=None)
def _sorted_flat(g: int, m: int) -> np.ndarray:
    """For every position of a (g,)*m tensor in C order, the flat position
    of its sorted multi-index; read-only, as the cache shares it."""
    flat = np.ravel_multi_index(np.sort(np.indices((g,) * m).reshape(m, -1), axis=0), (g,) * m)
    flat.flags.writeable = False
    return flat


def _vandermondes(e: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """The ordered Vandermonde product prod_{i > l in I} (e_i - e_l), larger
    index first, of every row of an int array of ascending index sets."""
    hi, lo = _pairs(sets.shape[1])
    return reduce(np.multiply, (e[sets[:, hi] - 1] - e[sets[:, lo] - 1]).T, np.ones(len(sets)))


def thomae_prefactor(ctx: CurveContext, masks: np.ndarray) -> np.ndarray:
    """(det omega/pi^g)^{1/2} Delta(A)^{1/4} Delta(B)^{1/4} for every finite
    index mask A (one |A| for all), B the finite complement of A; at |A| = g
    this is the first Thomae right side of I_0 = A."""
    e = np.asarray(ctx.spec.branch_points)
    a, b = index_rows(masks), index_rows(finite_mask(ctx.g) ^ masks)
    return ctx.det_factor * _vandermondes(e, a) ** 0.25 * _vandermondes(e, b) ** 0.25


def first_thomae_rhs(ctx: CurveContext, i0: Iterable[int]) -> complex:
    """(det omega/pi^g)^{1/2} Delta(I_0)^{1/4} Delta(J_0)^{1/4}, whose phase
    relative to theta[I_0] is +1.  The tests' scalar oracle of
    :func:`thomae_prefactor`; no run calls it.  Also a traced entry point of
    the benchmark (bench/layers.py): ``thomae.rhs.self_s`` and
    ``thomae.rhs.calls`` count its calls."""
    i0 = iset(i0)
    if Partition.from_set(ctx.g, i0).multiplicity() != 0:
        raise ValueError(f"{i0} is not a multiplicity-0 index set")
    if len(i0) != ctx.g or 0 in i0:
        raise ValueError("first Thomae expects the g finite indices of I_0")
    return complex(thomae_prefactor(ctx, np.array([index_mask(i0)]))[0])


def general_thomae_batch(
    ctx: CurveContext, a_masks: np.ndarray, k_masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The general Thomae formula for every row of index masks A, the finite
    part of a multiplicity-m partition (one |A| for all rows), and K, finite,
    disjoint from A, with |A| + |K| = g; m = (|K| + 1) // 2.

    Returns the direct right side and the ratio form
    d^m theta[A] / theta[A + K], each of shape (B,) + (g,)*m, exactly
    symmetric and with the phase (-1)^{m(m+1)/2} folded in."""
    g = ctx.g
    if np.any((a_masks | k_masks) & 1):
        raise ValueError("A and K must avoid the infinity index")
    if np.any(a_masks & k_masks):
        raise ValueError("K must be disjoint from A")
    k_size = np.bitwise_count(k_masks)
    if np.any(k_size < 1) or np.any(np.bitwise_count(a_masks) + k_size != g):
        raise ValueError(f"|K| must be g - |A| >= 1 (g={g})")
    e = np.asarray(ctx.spec.branch_points)
    k = index_rows(k_masks)
    kk, m = k.shape[1], (k.shape[1] + 1) // 2
    i0 = a_masks | k_masks
    # s(A + K - p) for every p in K, signed and applied to omega: (B, |K|, g)
    pts = e[index_rows(i0[:, None] ^ (1 << k)) - 1]
    s = np.zeros(pts.shape[:2] + (g,))
    s[..., 0] = 1.0
    for c in range(g - 1):  # expand prod (1 + e_i t) one point at a time
        s[..., 1:] = s[..., 1:] + pts[..., c, None] * s[..., :-1]
    svec = (s * (-1.0) ** np.arange(g)) @ ctx.periods.omega
    # per choice P of m positions in K: w_p = s(A + K - p) / prod_{q in K - P} (e_p - e_q)
    ek = e[k - 1]
    chosen = np.array(list(combinations(range(kk), m)))
    rest = np.array([[q for q in range(kk) if q not in c] for c in chosen.tolist()],
                    dtype=np.intp).reshape(len(chosen), kk - m)
    den = (ek[:, :, None] - ek[:, None, :])[:, chosen[:, :, None], rest[:, None, :]].prod(axis=-1)
    w = svec[:, chosen] / den[..., None]  # (B, C, m, g)
    # sum over choices of the outer product, then over the orderings of P
    outer = np.einsum(*[x for i in range(m) for x in (w[:, :, i], [0, 1, 2 + i])],
                      [0, *range(2, 2 + m)])
    t = sum(np.transpose(outer, (0, *(1 + np.array(p)))) for p in permutations(range(m)))
    # every entry reads its sorted multi-index, so the symmetry is exact
    flat = _sorted_flat(g, m)
    t = t.reshape(len(t), -1)[:, flat].reshape(t.shape) * (-1.0) ** (m * (m + 1) // 2)
    # prod_{kappa in K} (prod_{j in J_0} |e_kappa - e_j| / prod_{i in A} |e_kappa - e_i|)^{1/4}
    j0 = index_rows(finite_mask(g) ^ i0)
    a = index_rows(a_masks)
    num = np.abs(ek[:, :, None] - e[j0 - 1][:, None, :]).prod(axis=-1)
    den = np.abs(ek[:, :, None] - e[a - 1][:, None, :]).prod(axis=-1)
    ratio = ((num / den) ** 0.25).prod(axis=-1)
    shape = (len(t),) + (1,) * m
    return thomae_prefactor(ctx, a_masks).reshape(shape) * t, ratio.reshape(shape) * t


def calibrate_phases(ctx: CurveContext, masks: np.ndarray) -> np.ndarray:
    """THOMAE1's ratio kernel: theta[I_0] / rhs(I_0) for every finite index
    mask I_0 of g indices, which the first formula predicts to be +1.  The
    name is the benchmark's: bench/layers.py times it as the
    ``thomae.calibration`` layer."""
    return ctx.consts(masks) / thomae_prefactor(ctx, masks)
