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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .characteristics import HalfCharacteristic
from .context import CurveContext
from .curve import elementary_symmetric_all, ordered_diff_product, vandermonde
from .indexsets import IndexSet, complement_finite, drop, iset

EIGHTH_ROOTS = tuple(cmath.exp(1j * math.pi * k / 4) for k in range(8))
FOURTH_ROOTS = tuple(1j**k for k in range(4))


def snap_phase(ratio: complex, roots: Sequence[complex] = EIGHTH_ROOTS) -> tuple[complex, float]:
    """Nearest root of unity to ratio/|ratio| and the snap residual."""
    if ratio == 0:
        return 1.0 + 0j, float("inf")
    unit = ratio / abs(ratio)
    best = min(roots, key=lambda r: abs(unit - r))
    return best, abs(ratio - best)


def _det_factor(ctx: CurveContext) -> complex:
    det = complex(np.linalg.det(ctx.periods.omega))
    return cmath.sqrt(det / math.pi**ctx.g)


def _prefactor(ctx: CurveContext, a: IndexSet) -> complex:
    """(det omega/pi^g)^{1/2} Delta(A)^{1/4} Delta(B)^{1/4}, B the finite complement of A."""
    b = complement_finite(ctx.spec.n_finite, a)
    return _det_factor(ctx) * vandermonde(ctx.spec, a) ** 0.25 * vandermonde(ctx.spec, b) ** 0.25


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


def general_thomae_rhs(
    ctx: CurveContext,
    i_m: Iterable[int],
    multi_index: Sequence[int],
    k_set: Iterable[int],
) -> complex:
    """Right side of the general Thomae formula for one derivative entry.

    ``i_m``: index set of the multiplicity-m partition (0 allowed, or
    inferred by parity); ``multi_index``: (n_1..n_m), 1-based; ``k_set``:
    finite K inside the complement, |K| = 2m-1 or 2m.
    """
    part = ctx.partition(i_m)
    m = part.multiplicity()
    if m < 1:
        raise ValueError("general Thomae needs multiplicity >= 1")
    if len(multi_index) != m:
        raise ValueError(f"multi-index {multi_index} must have length m={m}")
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
    return _prefactor(ctx, a) * _thomae_sum(ctx, multi_index, k, _k_s_vectors(ctx, a, k))


def _k_s_vectors(ctx: CurveContext, a: IndexSet, k: IndexSet) -> dict[int, np.ndarray]:
    """The s-vector of A + K - p for every p in K."""
    return {p: _s_vector(ctx, drop(iset(a + k), p)) for p in k}


def _thomae_sum(
    ctx: CurveContext, multi_index: Sequence[int], k: IndexSet, svec: dict[int, np.ndarray]
) -> complex:
    m = len(multi_index)
    e = ctx.spec.branch_points
    total = 0.0 + 0j
    for chosen in combinations(k, m):
        rest = [q for q in k if q not in chosen]
        for ordering in set(permutations(chosen)):
            term = 1.0 + 0j
            for p, n in zip(ordering, multi_index):
                denom = 1.0
                for q in rest:
                    denom *= e[p - 1] - e[q - 1]
                term *= svec[p][n - 1] / denom
            total += term
    return total


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
    pref = _prefactor(ctx, a)
    if len(a) == ctx.g - 1:  # infinity on the J side: direct closed form
        s = _s_vector(ctx, a)
        return np.array([pref * s[n] for n in range(ctx.g)])
    k = complement_finite(ctx.spec.n_finite, a)[:2]
    svec = _k_s_vectors(ctx, a, k)
    return np.array([pref * _thomae_sum(ctx, (n,), k, svec) for n in range(1, ctx.g + 1)])


def second_thomae_rhs(ctx: CurveContext, i1: Iterable[int], n: int) -> complex:
    """Entry n (1-based) of :func:`second_thomae_rhs_vector`."""
    return second_thomae_rhs_vector(ctx, i1)[n - 1]


def general_thomae_ratio_rhs(
    ctx: CurveContext,
    i_m: Iterable[int],
    multi_index: Sequence[int],
    k_set: Iterable[int],
    i0: Iterable[int],
) -> complex:
    """Ratio form: d^m theta[I_m] / theta[I_0] with quartic-root prefactor."""
    part = ctx.partition(i_m)
    a = part.part
    k = iset(k_set)
    i0 = iset(i0)
    if iset(a + k) != i0 and drop(i0, *[x for x in i0 if x in k]) != a:
        raise ValueError(f"I_m={a} must equal I_0\\K for I_0={i0}, K={k}")
    j0 = complement_finite(ctx.spec.n_finite, i0)
    pref = 1.0
    for kappa in k:
        num = ordered_diff_product(ctx.spec, (kappa,), j0)
        den = ordered_diff_product(ctx.spec, (kappa,), a) if a else 1.0
        pref *= (num / den) ** 0.25
    return pref * _thomae_sum(ctx, multi_index, k, _k_s_vectors(ctx, a, k))


@dataclass
class PhaseCalibration:
    """Per-characteristic eighth root of theta[I_0] / first_thomae_rhs(I_0),
    with the ratio it was snapped from."""

    phases: dict[HalfCharacteristic, complex]
    ratios: dict[HalfCharacteristic, complex]
    residuals: dict[HalfCharacteristic, float]
    sets: dict[HalfCharacteristic, IndexSet]

    def worst_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


def calibrate_phases(ctx: CurveContext, fail_tol: float = 1e-4) -> PhaseCalibration:
    """Snap theta[I_0]/rhs to the nearest 8th root for every even
    non-singular characteristic; a large snap residual signals an upstream
    sign error and raises."""
    phases, ratios, residuals, sets = {}, {}, {}, {}
    for i0 in combinations(range(1, ctx.spec.n_finite + 1), ctx.g):
        c = ctx.char(i0)
        lhs = ctx.const(i0)
        rhs = first_thomae_rhs(ctx, i0)
        ratio = lhs / rhs
        phase, _ = snap_phase(ratio)
        resid = abs(ratio - phase)
        if resid > fail_tol:
            raise ValueError(
                f"phase calibration failed for I_0={i0} (char {c}): "
                f"ratio {ratio}, nearest 8th root {phase}, residual {resid:.3e}"
            )
        phases[c], ratios[c], residuals[c], sets[c] = phase, ratio, resid, i0
    return PhaseCalibration(phases=phases, ratios=ratios, residuals=residuals, sets=sets)
