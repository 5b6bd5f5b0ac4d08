"""Closed-form right-hand sides of the Thomae formulas, and phase calibration.

The first formula expresses a theta constant with non-singular even
characteristic through branch points and det(omega); the second and the
general one do the same for the order-m derivative tensors of singular
characteristics.  Every formula holds up to a per-characteristic eighth root
of unity; with sorted real branch points and right ordering all quartic
radicands are positive, so the only non-trivial phase source is
(det omega / pi^g)^{1/2}, taken once with the principal branch.

The general formula covers every m >= 1, the second formula (m = 1)
included: a multiplicity-m partition with finite part A is promoted to a
multiplicity-0 set I_0 = A + K by any finite K of cardinality 2m-1 or 2m
taken from the complement, and

    d^m theta[A] / dv_{n_1}..dv_{n_m}
      = eps * (det omega/pi^g)^{1/2} Delta(A)^{1/4} Delta(B)^{1/4}
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

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .characteristics import _char, mask_chars
from .context import CurveContext
from .indexsets import finite_mask, index_rows, iset

EIGHTH_ROOTS = tuple(cmath.exp(1j * math.pi * k / 4) for k in range(8))
FOURTH_ROOTS = tuple(1j**k for k in range(4))
# a calibration snap residual above this means an upstream sign error, not noise
CALIBRATION_FAIL_TOL = 1e-4


def snap_phase(ratio, roots: Sequence[complex] = EIGHTH_ROOTS) -> tuple:
    """Elementwise: the nearest root of unity to ratio/|ratio| (the first of
    ``roots`` on a tie) and the snap residual |ratio - root|; a zero ratio
    snaps to 1 with an infinite residual."""
    ratio, table = np.asarray(ratio), np.array(roots)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = ratio / np.abs(ratio)
    best = table[np.argmin(np.abs(unit[..., None] - table), axis=-1)]
    return best, np.where(ratio == 0, np.inf, np.abs(ratio - best))[()]


@lru_cache(maxsize=None)
def _pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions (i, l), i > l, of the pairs of a set of ``size``."""
    return np.tril_indices(size, -1)


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
    """(det omega/pi^g)^{1/2} Delta(I_0)^{1/4} Delta(J_0)^{1/4}, up to phase."""
    i0 = iset(i0)
    if ctx.partition(i0).multiplicity() != 0:
        raise ValueError(f"{i0} is not a multiplicity-0 index set")
    if len(i0) != ctx.g or 0 in i0:
        raise ValueError("first Thomae expects the g finite indices of I_0")
    return complex(thomae_prefactor(ctx, np.array([sum(1 << i for i in i0)]))[0])


def general_thomae_batch(
    ctx: CurveContext, a_masks: np.ndarray, k_masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The general Thomae formula for every row of index masks A, the finite
    part of a multiplicity-m partition (one |A| for all rows), and K, finite,
    disjoint from A, with |A| + |K| = g; m = (|K| + 1) // 2.

    Returns the direct right side and the ratio form
    d^m theta[A] / theta[A + K], each of shape (B,) + (g,)*m and exactly
    symmetric."""
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
    flat = np.ravel_multi_index(np.sort(np.indices((g,) * m).reshape(m, -1), axis=0), (g,) * m)
    t = t.reshape(len(t), -1)[:, flat].reshape(t.shape)
    # prod_{kappa in K} (prod_{j in J_0} |e_kappa - e_j| / prod_{i in A} |e_kappa - e_i|)^{1/4}
    j0 = index_rows(finite_mask(g) ^ i0)
    a = index_rows(a_masks)
    num = np.abs(ek[:, :, None] - e[j0 - 1][:, None, :]).prod(axis=-1)
    den = np.abs(ek[:, :, None] - e[a - 1][:, None, :]).prod(axis=-1)
    ratio = ((num / den) ** 0.25).prod(axis=-1)
    shape = (len(t),) + (1,) * m
    return thomae_prefactor(ctx, a_masks).reshape(shape) * t, ratio.reshape(shape) * t


@dataclass
class PhaseCalibration:
    """One row per non-singular even characteristic, in the ``combinations``
    order of its finite set I_0: the ratio theta[I_0] / first_thomae_rhs(I_0),
    the eighth root of unity it snaps to, and the snap residual."""

    sets: np.ndarray  # (N, g) ascending I_0
    bits: np.ndarray  # (N,) HalfCharacteristic.bits of each I_0
    ratios: np.ndarray  # (N,) complex
    phases: np.ndarray  # (N,) complex
    residuals: np.ndarray  # (N,) float


def calibrate_phases(ctx: CurveContext) -> PhaseCalibration:
    """Snap theta[I_0]/rhs to the nearest 8th root for every even
    non-singular characteristic, all I_0 at once; a large snap residual
    signals an upstream sign error and raises for the first such I_0 in
    ``combinations`` order."""
    g, n = ctx.g, ctx.spec.n_finite
    i0 = np.array(list(combinations(range(1, n + 1), g)), dtype=np.intp).reshape(-1, g)
    masks = np.bitwise_or.reduce(1 << i0, axis=1)
    ratios = ctx.consts(masks) / thomae_prefactor(ctx, masks)
    phases, residuals = snap_phase(ratios)
    bits = mask_chars(g)[masks]
    bad = np.flatnonzero(~(residuals <= CALIBRATION_FAIL_TOL))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"phase calibration failed for I_0={tuple(i0[i].tolist())} "
            f"(char {_char(g, int(bits[i]))}): "
            f"ratio {ratios[i].item()}, nearest 8th root {phases[i].item()}, "
            f"residual {residuals[i]:.3e}"
        )
    return PhaseCalibration(sets=i0, bits=bits, ratios=ratios, phases=phases, residuals=residuals)
