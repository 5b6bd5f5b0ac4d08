"""Closed-form right-hand sides of the Thomae formulas, and phase calibration.

The first formula expresses a theta constant with non-singular even
characteristic through branch points and det(omega); the second and the
general one do the same for the order-m derivative tensors of singular
characteristics.  Every formula holds up to a per-characteristic eighth root
of unity; with sorted real branch points and right ordering all quartic
radicands are positive, so the only non-trivial phase source is
(det omega / pi^g)^{1/2}, taken once with the principal branch.

The general machinery covers m = 1 uniformly: a multiplicity-m partition
with finite part A is promoted to a multiplicity-0 set I_0 = A + K by any
finite K of cardinality 2m-1 or 2m taken from the complement, and

    d^m theta[A] / dv_{n_1}..dv_{n_m}
      = eps * (det omega/pi^g)^{1/2} Delta(A)^{1/4} Delta(B)^{1/4}
        * sum over ordered distinct (p_1..p_m) in K of
          prod_i  [ sum_j (-1)^{j-1} s_{j-1}(A + K - p_i) omega_{j, n_i} ]
                  / prod_{k in K - {p_1..p_m}} (e_{p_i} - e_k),

with B the finite complement of A.  The value is independent of the choice
of K, which the verification suite checks separately.

The prefactor and the |K| s-vectors depend only on (I_m, K), so the sum is
built once per (I_m, K) as the whole symmetric (g,)^m tensor
(:func:`general_thomae_tensor`); a single entry, the ratio form and the
|K| = 2 gradient all read that one tensor, and 1-based multi-indices are
checked for length m and range 1..g.  :func:`general_thomae_forms` gives
the direct and the ratio form of one (I_m, K) from a single build.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .characteristics import _char, mask_chars
from .context import CurveContext
from .curve import elementary_symmetric_all, ordered_diff_product, vandermonde
from .indexsets import IndexSet, complement_finite, drop, iset

EIGHTH_ROOTS = tuple(cmath.exp(1j * math.pi * k / 4) for k in range(8))
FOURTH_ROOTS = tuple(1j**k for k in range(4))
# a calibration snap residual above this means an upstream sign error, not noise
CALIBRATION_FAIL_TOL = 1e-4


def snap_phase(ratio: complex, roots: Sequence[complex] = EIGHTH_ROOTS) -> tuple[complex, float]:
    """Nearest root of unity to ratio/|ratio| and the snap residual."""
    if ratio == 0:
        return 1.0 + 0j, float("inf")
    unit = ratio / abs(ratio)
    best = min(roots, key=lambda r: abs(unit - r))
    return best, abs(ratio - best)


def _prefactor(ctx: CurveContext, a: IndexSet) -> complex:
    """(det omega/pi^g)^{1/2} Delta(A)^{1/4} Delta(B)^{1/4}, B the finite complement of A."""
    b = complement_finite(ctx.spec.n_finite, a)
    return ctx.det_factor * vandermonde(ctx.spec, a) ** 0.25 * vandermonde(ctx.spec, b) ** 0.25


def first_thomae_rhs(ctx: CurveContext, i0: Iterable[int]) -> complex:
    """(det omega/pi^g)^{1/2} Delta(I_0)^{1/4} Delta(J_0)^{1/4}, up to phase."""
    i0 = iset(i0)
    if ctx.partition(i0).multiplicity() != 0:
        raise ValueError(f"{i0} is not a multiplicity-0 index set")
    if len(i0) != ctx.g or 0 in i0:
        raise ValueError("first Thomae expects the g finite indices of I_0")
    return _prefactor(ctx, i0)


def _s_vector(ctx: CurveContext, indices: IndexSet) -> np.ndarray:
    """omega^t (s_0, -s_1, ..., (-1)^{g-1} s_{g-1})(indices): one value per n."""
    g = ctx.g
    signs = np.array([(-1) ** j for j in range(g)], dtype=float)
    s = np.array((elementary_symmetric_all(ctx.spec, indices) + [0.0] * g)[:g])
    return ctx.periods.omega.T @ (signs * s)


def _general_args(
    ctx: CurveContext, i_m: Iterable[int], k_set: Iterable[int]
) -> tuple[IndexSet, IndexSet, int]:
    """(A, K, m) for the general formula: A the finite part of the
    multiplicity-m partition I_m, K a valid finite set for it."""
    part = ctx.partition(i_m)
    m = part.multiplicity()
    if m < 1:
        raise ValueError("general Thomae needs multiplicity >= 1")
    a = part.part  # finite part of I_m
    k = iset(k_set)
    if 0 in k:
        raise ValueError("K must avoid the infinity index")
    if len(k) not in (2 * m - 1, 2 * m):
        raise ValueError(f"|K| must be {2 * m - 1} or {2 * m}, got {len(k)}")
    if set(k) & set(a):
        raise ValueError(f"K={k} must be disjoint from I_m={a}")
    # I_0 = I_m + K must be a g-element finite multiplicity-0 set: |K| is
    # 2m-1 when infinity sits in J_m and 2m when it sits in I_m.
    if len(a) + len(k) != ctx.g:
        raise ValueError(
            f"I_m + K has size {len(a) + len(k)}, expected g={ctx.g}; "
            f"|K| must be {ctx.g - len(a)} for this partition"
        )
    return a, k, m


def _entry(multi_index: Sequence[int], m: int, g: int) -> tuple[int, ...]:
    """0-based tensor position of the 1-based multi-index (n_1..n_m)."""
    if len(multi_index) != m:
        raise ValueError(f"multi-index {tuple(multi_index)} must have length m={m}")
    if not all(1 <= n <= g for n in multi_index):
        raise ValueError(f"multi-index {tuple(multi_index)} needs entries in 1..{g}")
    return tuple(n - 1 for n in multi_index)


def _thomae_tensor(ctx: CurveContext, a: IndexSet, k: IndexSet, m: int) -> np.ndarray:
    """The ordered-tuple sum of the general formula as a symmetric (g,)*m
    tensor: over ordered distinct (p_1..p_m) in K, the outer product of
    s(A + K - p_i) / prod_{q in K - {p_1..p_m}} (e_{p_i} - e_q)."""
    e = ctx.spec.branch_points
    svec = {p: _s_vector(ctx, drop(iset(a + k), p)) for p in k}
    total = np.zeros((ctx.g,) * m, dtype=complex)
    for chosen in combinations(k, m):
        rest = [q for q in k if q not in chosen]
        w = {p: svec[p] / math.prod(e[p - 1] - e[q - 1] for q in rest) for p in chosen}
        for ordering in permutations(chosen):
            total += reduce(np.multiply.outer, [w[p] for p in ordering])
    # every entry reads its sorted multi-index, so the symmetry is exact
    sorted_idx = np.sort(np.indices(total.shape).reshape(m, -1), axis=0)
    return total.ravel()[np.ravel_multi_index(sorted_idx, total.shape)].reshape(total.shape)


def general_thomae_tensor(
    ctx: CurveContext, i_m: Iterable[int], k_set: Iterable[int]
) -> np.ndarray:
    """Right side of the general Thomae formula as the full symmetric (g,)*m
    tensor of the order-m derivatives, m the multiplicity of ``i_m``.

    ``i_m``: index set of the multiplicity-m partition (0 allowed, or
    inferred by parity); ``k_set``: finite K inside the complement,
    |K| = 2m-1 or 2m.
    """
    a, k, m = _general_args(ctx, i_m, k_set)
    return _prefactor(ctx, a) * _thomae_tensor(ctx, a, k, m)


def general_thomae_rhs(
    ctx: CurveContext,
    i_m: Iterable[int],
    multi_index: Sequence[int],
    k_set: Iterable[int],
) -> complex:
    """Entry (n_1..n_m), 1-based, of :func:`general_thomae_tensor`."""
    a, k, m = _general_args(ctx, i_m, k_set)
    idx = _entry(multi_index, m, ctx.g)
    return complex(_prefactor(ctx, a) * _thomae_tensor(ctx, a, k, m)[idx])


def second_thomae_rhs_vector(ctx: CurveContext, i1: Iterable[int]) -> np.ndarray:
    """Gradient theta constant of a multiplicity-1 characteristic, up to phase.

    For a finite I_1 of g-1 indices this is the closed second Thomae form;
    a set containing the infinity index is the general formula with the
    first two finite indices of the complement as K (|K| = 2).
    """
    part = ctx.partition(i1)
    if part.multiplicity() != 1:
        raise ValueError(f"{tuple(i1)} is not a multiplicity-1 index set")
    a = part.part
    if len(a) == ctx.g - 1:  # infinity on the J side: direct closed form
        return _prefactor(ctx, a) * _s_vector(ctx, a)
    return general_thomae_tensor(ctx, a, complement_finite(ctx.spec.n_finite, a)[:2])


def _ratio_prefactor(ctx: CurveContext, a: IndexSet, k: IndexSet, i0: IndexSet) -> float:
    """prod_{kappa in K} (prod_{j in J_0} (e_kappa - e_j) / prod_{i in A} (e_kappa - e_i))^{1/4},
    both products ordered, J_0 the finite complement of I_0."""
    j0 = complement_finite(ctx.spec.n_finite, i0)
    pref = 1.0
    for kappa in k:
        num = ordered_diff_product(ctx.spec, (kappa,), j0)
        den = ordered_diff_product(ctx.spec, (kappa,), a) if a else 1.0
        pref *= (num / den) ** 0.25
    return pref


def general_thomae_forms(
    ctx: CurveContext, i_m: Iterable[int], k_set: Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`general_thomae_tensor` and the whole ratio-form tensor
    d^m theta[I_m] / theta[I_0], I_0 = I_m + K, from one build of the sum."""
    a, k, m = _general_args(ctx, i_m, k_set)
    t = _thomae_tensor(ctx, a, k, m)
    return _prefactor(ctx, a) * t, _ratio_prefactor(ctx, a, k, iset(a + k)) * t


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


def _vandermondes(e: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """:func:`curve.vandermonde` of every row of an int array of ascending
    index sets, the factors in the same order."""
    hi, lo = np.tril_indices(sets.shape[1], -1)
    return reduce(np.multiply, (e[sets[:, hi] - 1] - e[sets[:, lo] - 1]).T, np.ones(len(sets)))


def calibrate_phases(ctx: CurveContext) -> PhaseCalibration:
    """Snap theta[I_0]/rhs to the nearest 8th root for every even
    non-singular characteristic, all I_0 at once; a large snap residual
    signals an upstream sign error and raises for the first such I_0 in
    ``combinations`` order."""
    g, n = ctx.g, ctx.spec.n_finite
    i0 = np.array(list(combinations(range(1, n + 1), g)), dtype=np.intp).reshape(-1, g)
    inside = np.zeros((len(i0), n + 1), dtype=bool)
    np.put_along_axis(inside, i0, True, axis=1)
    j0 = np.nonzero(~inside[:, 1:])[1].reshape(len(i0), n - g) + 1
    masks = np.bitwise_or.reduce(1 << i0, axis=1)
    e = np.array(ctx.spec.branch_points)
    # first_thomae_rhs of every I_0, in its order of operations
    rhs = ctx.det_factor * _vandermondes(e, i0) ** 0.25 * _vandermondes(e, j0) ** 0.25
    ratios = ctx.consts(masks) / rhs
    turns = np.nan_to_num(np.rint(np.angle(ratios) / (np.pi / 4)))
    phases = np.array(EIGHTH_ROOTS)[turns.astype(np.intp) % 8]
    residuals = np.abs(ratios - phases)
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
