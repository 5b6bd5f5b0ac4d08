"""Batched relation families against their per-binding oracles.

The oracles below are the per-binding verifiers as they were before the
families became array code: each binding looks its theta values up one at a
time through ``ctx.const`` / ``ctx.grads`` / ``ctx.deriv`` and index-set
surgery on sorted tuples, and builds R, the general Thomae tensor and the
Goepel cosets with scalar Python arithmetic.  The batch functions must give
the same records: ids, bindings and verdicts equal, notes equal (up to the
rounding of the measured numbers in THOMAEG, SCHOTTKY_DETR and SCHOTTKY_F
notes), residuals bit-equal where the arithmetic is the same and within
1e-3 x tolerance elsewhere.  R itself is checked against a 30-digit mpmath
evaluation of its formula.  The enumerations the samplers unrank are checked
against the list builders they replaced.
"""

import dataclasses
import hashlib
import math
import re
import zlib
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from typing import Iterable, Sequence

import mpmath
import numpy as np
import pytest

from oracles import (
    complement_finite,
    drop,
    elementary_symmetric_all,
    enumerate_partitions,
    ordered_diff_product,
    ref_collection_rank,
    replace,
    vandermonde,
)
from thomae_lab import harness
from thomae_lab import relations as rel
from thomae_lab import schottky as sch
from thomae_lab import thomae
from thomae_lab.characteristics import _char, _table, char_of_set, mask_chars
from thomae_lab.context import CurveContext
from thomae_lab.harness import (
    FAMILIES,
    SuiteConfig,
    _draw,
    _eklm_splits,
    _family_rng,
    _i0_splits,
    _kappa_splits,
    _part_masks,
    _partition_masks,
    _picker,
    _rank_bindings,
    random_curve,
    run_suite,
    unrank_combinations,
)
from thomae_lab.indexsets import IndexSet, index_mask as _mask, iset
from thomae_lab.relations import REPRESENTATION_RECORDS, VerificationRecord
from thomae_lab.theta import ThetaEngine

TINY = 1e-300


# --- oracles: the per-binding verifiers ------------------------------------

def vector_identity_residual(terms: Sequence[np.ndarray]) -> float:
    """max_n |sum_i T_i[n]| / (largest |T_i[n]| in that component)."""
    stack = np.stack([np.asarray(t, dtype=complex) for t in terms])
    total = np.abs(np.sum(stack, axis=0))
    per_comp = np.max(np.abs(stack), axis=0)
    floor = 1e-3 * np.max(per_comp) + TINY
    return float(np.max(total / np.maximum(per_comp, floor)))


def tensor_match_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs))) + TINY
    return float(np.max(np.abs(lhs - rhs)) / scale)


def oracle_eklm(
    ctx: CurveContext, i_set: Iterable[int], j_set: Iterable[int], k: int, m: int, n: int,
    tolerance: float = 1e-8,
) -> VerificationRecord:
    """|(e_k - e_m)/(e_k - e_n)| equals a squared theta cross ratio, which
    is positive."""
    i_set, j_set = iset(i_set), iset(j_set)
    g = ctx.g
    if len(i_set) != g - 1 or len(j_set) != g - 1:
        raise ValueError("I and J must have g-1 indices each")
    used = set(i_set) | set(j_set) | {k, m, n}
    if len(used) != 2 * g + 1 or 0 in used:
        raise ValueError("I, J, {k,m,n} must partition the finite indices")
    e = ctx.spec.branch_points
    lhs = (e[k - 1] - e[m - 1]) / (e[k - 1] - e[n - 1])
    rhs = (
        ctx.const(iset(i_set + (n,))) ** 2
        * ctx.const(iset(j_set + (n,))) ** 2
        / (ctx.const(iset(i_set + (m,))) ** 2 * ctx.const(iset(j_set + (m,))) ** 2)
    )
    residual = abs(abs(lhs) - rhs) / max(abs(lhs), abs(rhs))
    return VerificationRecord(
        "EKLM", {"I": i_set, "J": j_set, "k": k, "m": m, "n": n}, residual, tolerance
    )


def oracle_eji(
    ctx: CurveContext, i0: Iterable[int], i_k: int, i_l: int, j_n: int, j_m: int,
    tolerance: float = 1e-8,
) -> VerificationRecord:
    """The modulus of a branch-point quotient as a ratio of fourth powers,
    which is positive; the right side must not depend on the choice of
    (j_n, j_m)."""
    i0 = iset(i0)
    j0 = complement_finite(ctx.spec.n_finite, i0)
    if i_k not in i0 or i_l not in i0 or i_k == i_l:
        raise ValueError("i_k, i_l must be distinct members of I_0")
    if j_n not in j0 or j_m not in j0 or j_n == j_m:
        raise ValueError("j_n, j_m must be distinct members of J_0")
    e = ctx.spec.branch_points
    num = 1.0
    for j in j0:
        num *= e[i_k - 1] - e[j - 1]
    den = (e[i_k - 1] - e[i_l - 1]) ** 2
    for i in i0:
        if i != i_k:
            den *= e[i_k - 1] - e[i - 1]
    lhs = num / den

    def rhs_for(jn, jm):
        return (
            ctx.const(replace(i0, (i_k,), (jn,))) ** 4
            * ctx.const(replace(i0, (i_k,), (jm,))) ** 4
            * ctx.const(replace(j0, (jn, jm), (i_l,))) ** 4
            / (
                ctx.const(replace(i0, (i_k, i_l), (jn, jm))) ** 4
                * ctx.const(drop(j0, jm)) ** 4
                * ctx.const(drop(j0, jn)) ** 4
            )
        )

    rhs = rhs_for(j_n, j_m)
    residual = abs(abs(lhs) - rhs) / max(abs(lhs), abs(rhs))
    # independence of the (j_n, j_m) choice, including the swap
    alts = [(j_m, j_n)] + [p for p in combinations(j0, 2) if j_n not in p and j_m not in p][:1]
    for jn2, jm2 in alts:
        alt = rhs_for(jn2, jm2)
        residual = max(residual, abs(alt - rhs) / max(abs(rhs), abs(alt)))
    return VerificationRecord(
        "EJI",
        {"I0": i0, "i_k": i_k, "i_l": i_l, "j_n": j_n, "j_m": j_m},
        residual,
        tolerance,
    )


def oracle_grad2(
    ctx: CurveContext, i0: Iterable[int], kappa1: int, kappa2: int, j_m: int, j_n: int,
    tolerance: float = 1e-8,
) -> VerificationRecord:
    """Two-term decomposition of d theta[I_0 - {k1,k2}] over gradients of
    I_0^{(k2)} and I_0^{(k1)}."""
    i0 = iset(i0)
    if kappa1 >= kappa2 or kappa1 not in i0 or kappa2 not in i0:
        raise ValueError("need kappa1 < kappa2, both in I_0")
    j0 = complement_finite(ctx.spec.n_finite, i0)
    if j_m not in j0 or j_n not in j0 or j_m == j_n:
        raise ValueError("j_m, j_n must be distinct members of J_0")
    pref = (
        ctx.const(replace(i0, (kappa1, kappa2), (j_m, j_n)))
        * ctx.const(drop(j0, j_m))
        * ctx.const(drop(j0, j_n))
    )
    lhs = pref * ctx.grads(_mask(drop(i0, kappa1, kappa2)))
    t1 = (
        ctx.const(replace(i0, (kappa1,), (j_m,)))
        * ctx.const(replace(i0, (kappa1,), (j_n,)))
        * ctx.const(replace(j0, (j_m, j_n), (kappa2,)))
        * ctx.grads(_mask(drop(i0, kappa2)))
    )
    t2 = (
        ctx.const(replace(i0, (kappa2,), (j_m,)))
        * ctx.const(replace(i0, (kappa2,), (j_n,)))
        * ctx.const(replace(j0, (j_m, j_n), (kappa1,)))
        * ctx.grads(_mask(drop(i0, kappa1)))
    )
    residual = vector_identity_residual([lhs, -t1, t2])
    return VerificationRecord(
        "GRAD2",
        {"I0": i0, "kappa1": kappa1, "kappa2": kappa2, "j_m": j_m, "j_n": j_n},
        residual,
        tolerance,
    )


def _grad3_terms(
    ctx: CurveContext, i_set: IndexSet, kappas: Sequence[int], j_set: IndexSet, j_m: int, j_n: int
) -> list[np.ndarray]:
    k1, k2, k3 = kappas
    out = []
    for sign, (ka, kb, kc) in zip((1, -1, 1), ((k1, k2, k3), (k2, k1, k3), (k3, k1, k2))):
        coeff = (
            ctx.const(replace(j_set, (j_n,), (ka,)))
            * ctx.const(replace(j_set, (j_m,), (ka,)))
            * ctx.const(replace(j_set, (j_m, j_n), (kb, kc)))
        )
        out.append(sign * coeff * ctx.grads(_mask(iset(i_set + (ka,)))))
    return out


def oracle_grad3(
    ctx: CurveContext, i_set: Iterable[int], kappa1: int, kappa2: int, kappa3: int,
    j_m: int, j_n: int, tolerance: float = 1e-8,
) -> VerificationRecord:
    """Three-term vanishing combination of gradients sharing a (g-2)-set.

    The partition is I + {k1,k2,k3} + J over all indices 0..2g+1 (0 allowed
    among the kappas, smallest); any two of the three gradients must be
    linearly independent.
    """
    i_set = iset(i_set)
    kappas = (kappa1, kappa2, kappa3)
    if list(kappas) != sorted(kappas):
        raise ValueError("kappas must be ascending (0 = infinity smallest)")
    g = ctx.g
    if len(i_set) != g - 2:
        raise ValueError("|I| must be g-2")
    all_idx = set(range(2 * g + 2))
    j_set = iset(all_idx - set(i_set) - set(kappas))
    if len(j_set) != g + 1:
        raise ValueError("bindings do not partition the index set")
    if j_m not in j_set or j_n not in j_set or j_m == j_n:
        raise ValueError("j_m, j_n must be distinct members of J")
    terms = _grad3_terms(ctx, i_set, kappas, j_set, j_m, j_n)
    residual = vector_identity_residual(terms)
    # pairwise independence: smallest singular value of each 2 x g stack
    notes = []
    for a, b in combinations(range(3), 2):
        s = np.linalg.svd(
            np.stack([ctx.grads(_mask(iset(i_set + (kappas[a],)))),
                      ctx.grads(_mask(iset(i_set + (kappas[b],))))]),
            compute_uv=False,
        )
        if s[1] / s[0] < 1e-6:
            notes.append(f"pair ({kappas[a]},{kappas[b]}) nearly dependent: {s[1]/s[0]:.2e}")
    return VerificationRecord(
        "GRAD3",
        {"I": i_set, "kappas": kappas, "j_m": j_m, "j_n": j_n},
        residual,
        tolerance,
        notes="; ".join(notes),
    )


def oracle_grad4(
    ctx: CurveContext, i_set: Iterable[int], kappas: Sequence[int], j_m: int, j_n: int,
    tolerance: float = 1e-8, pairs: Sequence[tuple[int, int]] | None = None,
) -> VerificationRecord:
    """Four-term relation between gradients sharing a (g-3)-set.

    ``kappas`` are five ascending indices; the default grouping is the
    canonical one ((k1k2), (k1k3), (k2k3), (k4k5)); pass ``pairs`` for a
    regrouped variant.  Signs alternate in ascending order of the sets
    I + pair.  Also asserts rank 3 of the first three gradients.
    """
    i_set = iset(i_set)
    kappas = tuple(kappas)
    if list(kappas) != sorted(kappas) or len(kappas) != 5:
        raise ValueError("need five ascending kappas")
    g = ctx.g
    if len(i_set) != g - 3:
        raise ValueError("|I| must be g-3")
    j_set = iset(set(range(2 * g + 2)) - set(i_set) - set(kappas))
    if len(j_set) != g or j_m not in j_set or j_n not in j_set or j_m == j_n:
        raise ValueError("invalid J / j_m / j_n bindings")
    k1, k2, k3, k4, k5 = kappas
    if pairs is None:
        pairs = [(k1, k2), (k1, k3), (k2, k3), (k4, k5)]
    sets = [iset(i_set + p) for p in pairs]
    order = sorted(range(4), key=lambda t: tuple(sorted(sets[t], reverse=True)))
    terms = []
    grads = []
    for rank_pos, t in enumerate(order):
        pa, pb = pairs[t]
        rest = tuple(x for x in kappas if x not in (pa, pb))
        coeff = (
            ctx.const(replace(j_set, (j_n,), (pa, pb)))
            * ctx.const(replace(j_set, (j_m,), (pa, pb)))
            * ctx.const(replace(j_set, (j_m, j_n), rest))
        )
        vec = ctx.grads(_mask(sets[t]))
        grads.append(vec)
        terms.append((-1) ** rank_pos * coeff * vec)
    residual = vector_identity_residual(terms)
    s = np.linalg.svd(np.stack(grads[:3]), compute_uv=False)
    notes = f"triple sigma3/sigma1={s[2]/s[0]:.2e}"
    if s[2] / s[0] < 1e-6:
        notes += " (rank deficient!)"
        residual = max(residual, 1.0)
    return VerificationRecord(
        "GRAD4",
        {"I": i_set, "kappas": kappas, "pairs": tuple(pairs), "j_m": j_m, "j_n": j_n},
        residual,
        tolerance,
        notes=notes,
    )


def oracle_gradn(
    ctx: CurveContext, i_set: Iterable[int], b_set: Sequence[int], k_size: int,
    j_m: int, j_n: int, tolerance: float = 1e-6,
) -> VerificationRecord:
    """Conjectural (r+1)-term relation; r = k_size, |B| = 2r-1, |I| = g-r.

    K is the first r elements of B.  Report-only for r >= 4.
    """
    i_set = iset(i_set)
    b_set = tuple(b_set)
    r = k_size
    if len(b_set) != 2 * r - 1 or list(b_set) != sorted(b_set):
        raise ValueError("B must be 2r-1 ascending indices")
    g = ctx.g
    if len(i_set) != g - r:
        raise ValueError("|I| must be g-r")
    j_set = iset(set(range(2 * g + 2)) - set(i_set) - set(b_set))
    if j_m not in j_set or j_n not in j_set or j_m == j_n:
        raise ValueError("invalid j_m/j_n")
    k_set = b_set[:r]
    rest = tuple(x for x in b_set if x not in k_set)
    jmn = drop(j_set, j_m, j_n)
    # signs alternate in ascending set order of I + K^{(kappa_l)}, with
    # I + (B - K) largest; dropping a smaller kappa leaves a larger set, so
    # the term of kappa_l sits at ascending position r - l + 1.
    terms = []
    for pos, kappa in enumerate(k_set, start=1):
        k_red = tuple(x for x in k_set if x != kappa)
        coeff = (
            ctx.const(iset(drop(j_set, j_n) + k_red))
            * ctx.const(iset(drop(j_set, j_m) + k_red))
            * ctx.const(iset(jmn + tuple(x for x in b_set if x not in k_red)))
        )
        terms.append((-1) ** (r - pos) * coeff * ctx.grads(_mask(iset(i_set + k_red))))
    coeff = (
        ctx.const(iset(drop(j_set, j_n) + rest))
        * ctx.const(iset(drop(j_set, j_m) + rest))
        * ctx.const(iset(jmn + k_set))
    )
    terms.append((-1) ** r * coeff * ctx.grads(_mask(iset(i_set + rest))))
    residual = vector_identity_residual(terms)
    return VerificationRecord(
        "GRADN",
        {"I": i_set, "B": b_set, "r": r, "j_m": j_m, "j_n": j_n},
        residual,
        tolerance,
        notes="conjecture: residual reported" if r >= 4 else "",
    )


def _entry_sign(positions: Sequence[int], kk: int) -> float:
    """(-1)^(sum of the 1-based positions + offset) for 0-based positions."""
    # verified for m = 2, 3; the odd-|K| offset alternates with m and the
    # m = 4 evidence runs match the extrapolation
    m = len(positions)
    offset = m % 2 if (kk == 2 * m - 1 and m >= 2) else 0
    return float((-1) ** (sum(positions) + m + offset))


def oracle_r_tensor(
    ctx: CurveContext, i0: IndexSet, k_set: IndexSet, j_m: int, j_n: int, order: int
) -> np.ndarray:
    """Symmetric coefficient tensor R of the order-m representation.

    Entries with repeated indices vanish; for positions k_1 < ... < k_m of
    elements P of K (ascending), with Q = K - P,

        R = eps * prod_{pairs of P} th[I0^{(p,p' -> jn,jm)}]
                * prod_{pairs of Q} th[I0^{(q,q' -> jn,jm)}]
                * (|K| = 2m only) prod_{p} th[J0^{(jn,jm -> p)}]
                * prod_{q} th[I0^{(q -> jm)}] th[I0^{(q -> jn)}]
                          * (|K| = 2m-1 only) th[J0^{(jn,jm -> q)}]
                / ( (th[J0^{(jm)}] th[J0^{(jn)}])^{|K|-m}
                    * prod_{p, q} th[I0^{(p,q -> jn,jm)}] )

    Every theta constant is read once, into tables indexed by position in K.
    """
    kk = len(k_set)
    m = order
    if kk not in (2 * m - 1, 2 * m):
        raise ValueError(f"|K|={kk} incompatible with order {m}")
    j0 = complement_finite(ctx.spec.n_finite, i0)
    if j_m not in j0 or j_n not in j0 or j_m == j_n:
        raise ValueError("j_m, j_n must be distinct members of J_0")
    denom_base = (ctx.const(drop(j0, j_m)) * ctx.const(drop(j0, j_n))) ** (kk - m)
    pair = {}
    for a, b in combinations(range(kk), 2):
        pair[a, b] = pair[b, a] = ctx.const(replace(i0, (k_set[a], k_set[b]), (j_n, j_m)))
    single = [ctx.const(replace(i0, (q,), (j_m,))) * ctx.const(replace(i0, (q,), (j_n,)))
              for q in k_set]
    swap = [ctx.const(replace(j0, (j_n, j_m), (p,))) for p in k_set]
    tensor = np.zeros((kk,) * m, dtype=complex)
    for ps in combinations(range(kk), m):
        qs = [t for t in range(kk) if t not in ps]
        val = _entry_sign(ps, kk)
        for a, b in combinations(ps, 2):
            val *= pair[a, b]
        for a, b in combinations(qs, 2):
            val *= pair[a, b]
        if kk == 2 * m:
            for p in ps:
                val *= swap[p]
        for q in qs:
            val *= single[q]
            if kk == 2 * m - 1:
                val *= swap[q]
            for p in ps:
                val /= pair[p, q]
        val /= denom_base
        for perm in set(permutations(ps)):
            tensor[perm] = val
    return tensor


def oracle_representation_tensor(
    ctx: CurveContext, i0: Iterable[int], k_set: Iterable[int], j_m: int, j_n: int, order: int
) -> np.ndarray:
    """Predicted order-m derivative tensor of theta[I0 - K]: R applied to the
    gradients of theta[I0 - p], p in K, divided by theta[I0]^(m-1)."""
    i0, k_set = iset(i0), iset(k_set)
    if not set(k_set) <= set(i0):
        raise ValueError("K must be a subset of I_0")
    if len(i0) != ctx.g or 0 in i0:
        raise ValueError("I_0 must be the g finite indices of a multiplicity-0 set")
    r = oracle_r_tensor(ctx, i0, k_set, j_m, j_n, order)
    a = np.stack([ctx.grads(_mask(drop(i0, p))) for p in k_set])  # |K| x g
    theta0 = ctx.const(i0)
    out = r
    for _ in range(order):
        out = np.tensordot(out, a, axes=([0], [0]))
    return out / theta0 ** (order - 1)


def _repr_tensors(
    ctx: CurveContext, i0: IndexSet, k_set: IndexSet, j_m: int, j_n: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """(predicted, computed) order-m derivative tensor of theta[I0 - K]."""
    pred = oracle_representation_tensor(ctx, i0, k_set, j_m, j_n, order)
    return pred, ctx.deriv(drop(i0, *k_set), order).entries


def oracle_derivative_repr(
    ctx: CurveContext, i0: Iterable[int], k_set: Iterable[int], j_m: int, j_n: int,
    tolerance: float,
) -> VerificationRecord:
    """Derivative theta constants of order m = (|K|+1)//2 as forms in the
    gradients: Hessians for |K| = 3, 4 (HESS_K3/K4), third derivatives for
    |K| = 5, 6 (D3_K5/K6)."""
    i0, k_set = iset(i0), iset(k_set)
    if len(k_set) not in REPRESENTATION_RECORDS:
        raise ValueError(f"|K| must be one of {sorted(REPRESENTATION_RECORDS)}, got {len(k_set)}")
    pred, target = _repr_tensors(ctx, i0, k_set, j_m, j_n, (len(k_set) + 1) // 2)
    return VerificationRecord(
        REPRESENTATION_RECORDS[len(k_set)],
        {"I0": i0, "K": k_set, "j_m": j_m, "j_n": j_n},
        tensor_match_residual(pred, target),
        tolerance,
    )


def oracle_hess_equiv(
    ctx: CurveContext,
    binding_a: tuple[IndexSet, IndexSet, int, int],
    binding_b: tuple[IndexSet, IndexSet, int, int],
    tolerance: float = 1e-8,
) -> VerificationRecord:
    """Two representations of the same Hessian agree entrywise."""
    ia, ka, jma, jna = binding_a
    ib, kb, jmb, jnb = binding_b
    if drop(iset(ia), *iset(ka)) != drop(iset(ib), *iset(kb)):
        raise ValueError("bindings must represent the same characteristic")
    va = oracle_representation_tensor(ctx, ia, ka, jma, jna, 2)
    vb = oracle_representation_tensor(ctx, ib, kb, jmb, jnb, 2)
    return VerificationRecord(
        "HESS_EQUIV",
        {"I0_a": iset(ia), "K_a": iset(ka), "I0_b": iset(ib), "K_b": iset(kb),
         "j_a": (jma, jna), "j_b": (jmb, jnb)},
        tensor_match_residual(va, vb),
        tolerance,
    )


def oracle_hessian_rank(
    ctx: CurveContext, i2: Iterable[int], tolerance: float = 1e-8
) -> VerificationRecord:
    """Rank of the Hessian of a multiplicity-2 characteristic: exactly 3 for
    g > 3 (sigma_4/sigma_1 < tol, sigma_3/sigma_1 > 1e-6), full at g = 3."""
    part = ctx.partition(i2)
    if part.multiplicity() != 2:
        raise ValueError(f"{tuple(i2)} is not a multiplicity-2 index set")
    h = ctx.deriv(part.part, 2).entries
    sv = np.linalg.svd(h, compute_uv=False)
    g = ctx.g
    if g == 3:
        residual = 0.0 if sv[2] / sv[0] > 1e-6 else 1.0
        notes = f"sigma3/sigma1={sv[2]/sv[0]:.2e} (full rank expected)"
    else:
        drop4 = sv[3] / sv[0]
        keep3 = sv[2] / sv[0]
        residual = drop4 if keep3 > 1e-6 else 1.0
        notes = f"sigma4/sigma1={drop4:.2e}, sigma3/sigma1={keep3:.2e}"
    return VerificationRecord("HESS_RANK", {"I2": part.part}, residual, tolerance, notes=notes)


def oracle_conjecture(
    ctx: CurveContext, i0: Iterable[int], k_set: Iterable[int], order: int,
    j_m: int, j_n: int, tolerance: float = 1e-3,
) -> VerificationRecord:
    """The representation at order m = order, R with its own sign; for
    m >= 4 the residual is reported only."""
    i0, k_set = iset(i0), iset(k_set)
    if order >= 4 and ctx.g < 7:
        raise ValueError("multiplicity >= 4 requires genus >= 7")
    pred, target = _repr_tensors(ctx, i0, k_set, j_m, j_n, order)
    return VerificationRecord(
        "CONJ_M",
        {"I0": i0, "K": k_set, "m": order, "j_m": j_m, "j_n": j_n},
        tensor_match_residual(pred, target),
        tolerance,
        notes="conjecture: residual reported" if order >= 4 else "",
    )


def oracle_rj_det(
    ctx: CurveContext, i0: Iterable[int], tolerance: float = 1e-6
) -> VerificationRecord:
    """det(grad theta[I0^{(i)}], i in I0) = (-pi)^g theta[I0] *
    prod_{j in J0} theta[J0^{(j)}], the sign (-1)^g predicted."""
    i0 = iset(i0)
    if len(i0) != ctx.g or 0 in i0 or ctx.partition(i0).multiplicity() != 0:
        raise ValueError("I_0 must be a multiplicity-0 set of g finite indices")
    j0 = complement_finite(ctx.spec.n_finite, i0)
    mat = np.stack([ctx.grads(_mask(drop(i0, i))) for i in i0], axis=1)
    lhs = np.linalg.det(mat)
    rhs = (-np.pi) ** ctx.g * ctx.const(i0)
    for j in j0:
        rhs *= ctx.const(drop(j0, j))
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return VerificationRecord("RJ_DET", {"I0": i0}, residual, tolerance)


# --- oracles: the Thomae, rank and Schottky families ----------------------

def _s_vector(ctx: CurveContext, indices: IndexSet) -> np.ndarray:
    """omega^t (s_0, -s_1, ..., (-1)^{g-1} s_{g-1})(indices): one value per n."""
    g = ctx.g
    signs = np.array([(-1) ** j for j in range(g)], dtype=float)
    s = np.array((elementary_symmetric_all(ctx.spec, indices) + [0.0] * g)[:g])
    return ctx.periods.omega.T @ (signs * s)


def _prefactor(ctx: CurveContext, a: IndexSet) -> complex:
    """(det omega/pi^g)^{1/2} Delta(A)^{1/4} Delta(B)^{1/4}, B the finite complement of A."""
    b = complement_finite(ctx.spec.n_finite, a)
    return ctx.det_factor * vandermonde(ctx.spec, a) ** 0.25 * vandermonde(ctx.spec, b) ** 0.25


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
    sorted_idx = np.sort(np.indices(total.shape).reshape(m, -1), axis=0)
    return total.ravel()[np.ravel_multi_index(sorted_idx, total.shape)].reshape(total.shape)


def oracle_thomae2(ctx: CurveContext, i1: IndexSet, tolerance: float = 1e-6) -> VerificationRecord:
    """The gradient of a multiplicity-1 characteristic against the closed
    second Thomae form (the general one with the first two finite indices
    of the complement as K when the part holds infinity), times the
    predicted phase -1."""
    a = ctx.partition(i1).part
    lhs = ctx.grads(_mask(i1))
    if len(a) == ctx.g - 1:
        rhs = _prefactor(ctx, a) * _s_vector(ctx, a)
    else:
        k = complement_finite(ctx.spec.n_finite, a)[:2]
        rhs = _prefactor(ctx, a) * _thomae_tensor(ctx, a, k, 1)
    residual = float(np.max(np.abs(lhs + rhs)) / np.max(np.abs(lhs)))
    return VerificationRecord("THOMAE2", {"I1": i1}, residual, tolerance)


def oracle_thomaeg(
    ctx: CurveContext, a: IndexSet, m: int, tolerance: float = 1e-5, tolerance_m3: float = 1e-4,
) -> VerificationRecord:
    """The general Thomae formula at multiplicity m with K the first
    g - |A| finite indices outside A, times the predicted phase
    (-1)^{m(m+1)/2}, plus K-independence and the ratio form at the largest
    entry."""
    ksize = ctx.g - len(a)
    jm_fin = complement_finite(ctx.spec.n_finite, a)
    kset = jm_fin[:ksize]
    lhs = ctx.deriv(a, m).entries
    t = _thomae_tensor(ctx, a, kset, m)
    pred = _prefactor(ctx, a) * t
    flat = int(np.argmax(np.abs(lhs)))
    phase = (-1) ** (m * (m + 1) // 2)
    residual = float(np.max(np.abs(lhs - phase * pred)) / np.max(np.abs(lhs)))
    v1 = pred.flat[flat]
    v2 = (_prefactor(ctx, a) * _thomae_tensor(ctx, a, jm_fin[-ksize:], m)).flat[flat]
    k_indep = abs(v1 - v2) / float(np.max(np.abs(pred)))
    # prod_{kappa in K} (prod_{j in J_0} (e_kappa - e_j) / prod_{i in A} (e_kappa - e_i))^{1/4}
    i0 = iset(a + kset)
    pref = 1.0
    for kappa in kset:
        num = ordered_diff_product(ctx.spec, (kappa,), complement_finite(ctx.spec.n_finite, i0))
        den = ordered_diff_product(ctx.spec, (kappa,), a) if a else 1.0
        pref *= (num / den) ** 0.25
    r1, r2 = complex(pref * t.flat[flat]), v1 / _prefactor(ctx, i0)
    ratio_resid = abs(r1 - r2) / max(abs(r1), abs(r2))
    if k_indep > 1e-8 or ratio_resid > 1e-10:
        residual = max(residual, 1.0)
    return VerificationRecord(
        "THOMAEG", {"Im": a, "m": m, "K": kset}, residual,
        tolerance_m3 if m == 3 else tolerance,
        notes=f"K-indep {k_indep:.2e}; ratio-form {ratio_resid:.2e}",
    )


def oracle_rank(
    ctx: CurveContext, sets: Sequence[IndexSet], degenerate: bool, tolerance: float = 0.5,
) -> VerificationRecord:
    """Observed rank of a collection of multiplicity-1 gradients against
    the combinatorial prediction; the degenerate family must have rank 3."""
    parts, rows = [], []
    for s in sets:
        p = ctx.partition(s)
        parts.append(frozenset(p.full_part()))
        rows.append(ctx.grads(_mask(p.part)))
    dedup = list(dict.fromkeys(parts))
    sv = np.linalg.svd(np.stack([rows[parts.index(p)] for p in dedup]), compute_uv=False)
    obs = int(np.sum(sv > rel.RANK_SVD_CUT * sv[0]))
    pred = ref_collection_rank(ctx.g, dedup)
    if degenerate:
        return VerificationRecord(
            "RANK", {"sets": tuple(sets), "family": "degenerate"},
            0.0 if obs == pred == 3 else 1.0, tolerance,
            notes=f"degenerate family: observed {obs}, predicted {pred} (want 3)",
        )
    return VerificationRecord("RANK", {"sets": tuple(sets)}, 0.0 if obs == pred else 1.0,
                              tolerance, notes=f"observed {obs}, predicted {pred}")


def _raw_char(g: int, s: Iterable[int]):
    return _char(g, char_of_set(g, s).bits ^ _table(g)[1])


def _goepel(g: int, generators: Sequence[IndexSet]) -> list[frozenset]:
    """Elements of the group generated by the characteristics of the sets,
    as sets under symmetric difference; the generators must be independent."""
    gens = [frozenset(s) - {0} for s in generators]
    basis: list[int] = []
    for s in gens:
        v = _raw_char(g, s).bits
        for b in basis:
            v = min(v, v ^ b)
        assert v != 0, f"dependent generator {sorted(s)}"
        basis = sorted(basis + [v], reverse=True)
    elements = [frozenset()]
    for s in gens:
        elements += [e ^ s for e in elements]
    return elements


def _coset_powers(ctx: CurveContext, generators, a_sets) -> tuple[list, list]:
    """The coset products normalised to degree 8, and their square roots."""
    elements = _goepel(ctx.g, generators)
    exponent = 8.0 / len(elements)
    r, roots = [], []
    for a in a_sets:
        prod = 1.0 + 0j
        for el in elements:
            p = ctx.partition((frozenset(a) - {0}) ^ el)
            assert p.multiplicity() == 0, p
            prod *= ctx.const(p.part)
        r.append(complex(prod) ** exponent)
        roots.append(complex(prod) ** (exponent / 2.0))
    return r, roots


def _j_residual(r: Sequence[complex]) -> float:
    r1, r2, r3 = r
    j = r1**2 + r2**2 + r3**2 - 2 * r1 * r2 - 2 * r1 * r3 - 2 * r2 * r3
    return abs(j) / max(abs(x) for x in r) ** 2


def oracle_schottky_r(
    ctx: CurveContext, i0: IndexSet, ps: IndexSet, j_m: int, j_n: int,
    tolerance: float = 1e-8, det_tolerance: float = 1e-10,
) -> list[VerificationRecord]:
    """The three routes to the rank-1 Schottky relation: J = 0 for the
    rank-3 Goepel group of K = {p_1..p_4}, [A({q_1, j_m})], [A({q_2, j_n})];
    det R = 0 with all 3x3 minors nonzero; a1 - a2 + a3 = 0 exactly."""
    j0 = complement_finite(ctx.spec.n_finite, i0)
    q1, q2 = [j for j in j0 if j not in (j_m, j_n)][:2]
    a_sets = [replace(i0, (ps[0], ps[i]), (j_m, j_n)) for i in (1, 2, 3)]
    r, _ = _coset_powers(ctx, [ps, (q1, j_m), (q2, j_n)], a_sets)
    out = [VerificationRecord("SCHOTTKY_R", {"I0": i0, "p": ps, "j_m": j_m, "j_n": j_n},
                              _j_residual(r), tolerance)]
    r_hat = oracle_r_tensor(ctx, i0, ps, j_m, j_n, 2)
    sv = np.linalg.svd(r_hat, compute_uv=False)
    det_resid = abs(np.linalg.det(r_hat)) / (sv[0] ** 4)
    minors = [abs(np.linalg.det(r_hat[np.ix_(rows, cols)])) / sv[0] ** 3
              for rows in combinations(range(4), 3) for cols in combinations(range(4), 3)]
    notes = f"sigma3/sigma1={sv[2]/sv[0]:.2e}, smallest 3x3 minor {min(minors):.2e}"
    if sv[2] / sv[0] < 1e-6 or min(minors) < 1e-6:
        notes += " (3x3 minors unexpectedly small)"
        det_resid = max(det_resid, 1.0)
    out.append(VerificationRecord("SCHOTTKY_DETR", {"I0": i0, "K": ps, "j_m": j_m, "j_n": j_n},
                                  det_resid, det_tolerance, notes=notes))
    e = [Fraction(ctx.spec.branch_points[p - 1]) for p in ps]
    exact = (e[1] - e[0]) * (e[3] - e[2]) - (e[2] - e[0]) * (e[3] - e[1]) \
        + (e[3] - e[0]) * (e[2] - e[1])
    out.append(VerificationRecord("SCHOTTKY_A123", {"p": ps}, float(abs(exact)), 0.5,
                                  notes="exact rational arithmetic; residual must be exactly 0"))
    return out


def oracle_appendix_f(
    ctx: CurveContext, case_id: str, tolerance: float = 1e-7
) -> VerificationRecord:
    """One Appendix-F Schottky case with the printed sign pattern."""
    if case_id == "schottky.Ratio45":
        worst = 0.0
        for pair in sch._RATIO45_PRODUCTS:
            prod = np.prod([ctx.const(s) for s in pair])
            ref = np.prod([_prefactor(ctx, s) for s in pair])
            worst = max(worst, abs(abs(prod) - abs(ref)) / abs(ref))
        return VerificationRecord("SCHOTTKY_F", {"case": case_id}, worst, tolerance,
                                  notes="intra-genus Thomae consistency of the listed products")
    case = sch._F_CASES[case_id]
    r, roots = _coset_powers(ctx, case["group"], case["a_sets"])
    printed_signs = case["signs"]
    scale = max(abs(x) for x in roots)

    def combo(signs):
        return abs(sum((1 if s == "+" else -1) * x for s, x in zip(signs, roots))) / scale

    best_signs, best = "+" * len(roots), float("inf")
    for mask in range(2 ** (len(roots) - 1)):
        signs = "+" + "".join("+" if (mask >> i) & 1 == 0 else "-" for i in range(len(roots) - 1))
        if combo(signs) < best:
            best, best_signs = combo(signs), signs
    printed = combo(printed_signs)
    j_resid = _j_residual(r) if len(r) == 3 else 0.0
    notes = (f"printed signs {printed_signs}, best {best_signs} ({best:.2e}); "
             f"J residual {j_resid:.2e}")
    residual = printed if best_signs == printed_signs else max(printed, 1.0)
    return VerificationRecord("SCHOTTKY_F", {"case": case_id}, residual, tolerance, notes=notes)


# --- oracles: the list-building enumerations ---------------------------------

def list_i0_splits(g: int, ksize: int) -> list:
    """(I_0, K, j_m, j_n) for every finite g-set I_0, every ksize-subset K of
    I_0, and the two smallest indices j_m < j_n of J_0."""
    out = []
    for i0 in combinations(range(1, 2 * g + 2), g):
        j0 = complement_finite(2 * g + 1, i0)
        out.extend((i0, ks, j0[0], j0[1]) for ks in combinations(i0, ksize))
    return out


def list_kappa_splits(g: int, isize: int, nk: int) -> list:
    """(I, kappas, j_m, j_n) over all indices 0..2g+1: I a finite isize-set,
    kappas nk further indices, j_m < j_n the two smallest finite ones left."""
    all_idx = range(2 * g + 2)
    out = []
    for i_set in combinations(range(1, 2 * g + 2), isize):
        rest = [x for x in all_idx if x not in i_set]
        for kappas in combinations(rest, nk):
            jf = [x for x in rest if x not in kappas and x != 0]
            out.append((i_set, kappas, jf[0], jf[1]))
    return out


def list_eklm_bindings(g: int):
    fin = range(1, 2 * g + 2)
    bindings = []
    for k, m, n in combinations(fin, 3):
        others = [x for x in fin if x not in (k, m, n)]
        for i_set in combinations(others, g - 1):
            j_set = tuple(x for x in others if x not in i_set)
            bindings += [(i_set, j_set, k, m, n), (i_set, j_set, m, n, k)]
    return bindings


def list_part_masks(g: int, m: int, cap: int, rng) -> np.ndarray:
    """The partition sampler as it was: the mask of every multiplicity-m
    partition from a validated ``Partition`` each, then a sample of the list."""
    masks = [_mask(p.part) for p in enumerate_partitions(g, m)]
    return np.array([masks[i] for i in _draw(len(masks), cap, rng)],
                    dtype=np.int64).reshape(-1, 1)


def list_rank_bindings(g: int, cfg, rng) -> np.ndarray:
    """The RANK sampler as it was, over the list of multiplicity-1 masks."""
    parts = [_mask(p.part) for p in enumerate_partitions(g, 1)]
    width = min(g + 2, 6)
    rows = []
    for _ in range(min(cfg.cap, 200)):
        size = int(rng.integers(2, width + 1))
        idx = rng.choice(len(parts), size=size, replace=False)
        rows.append([0] + [parts[i] for i in idx] + [-1] * (width - size))
    if g >= 4:
        shared = tuple(range(1, g - 1))
        fam = [shared + (g - 1 + i,) for i in range(3)]
        fam.append(tuple(sorted(set(range(1, 2 * g + 2)) - set(shared))[-(g - 1):]))
        rows.append([1] + [_mask(s) for s in fam] + [-1] * (width - len(fam)))
    return np.array(rows, dtype=np.int64)


# --- batch records equal oracle records -----------------------------------

def _set(mask: int) -> tuple:
    """The ascending index set of a mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _args(name, g, row):
    """The oracle's positional arguments and keywords for one binding row."""
    if name in ("EJI", "GRAD2", "GRAD3"):  # [I K j j], the indices of K one by one
        return (_set(row[0]), *_set(row[1]), *row[2:]), {}
    if name == "GRAD4":
        return (_set(row[0]), _set(row[1]), row[2], row[3]), \
            {"pairs": [_set(s) for s in row[4:]]}
    if name == "GRADN":
        i_set, b_set = _set(row[0]), _set(row[1])
        return (i_set, b_set, (len(b_set) + 1) // 2, row[2], row[3]), {}
    if name in ("RJ_DET", "HESS_RANK", "THOMAE2"):
        return (_set(row[0]),), {}
    if name == "HESS_EQUIV":
        return ((_set(row[0]), _set(row[1]), row[2], row[3]),
                (_set(row[4]), _set(row[5]), row[6], row[7])), {}
    if name == "CONJ_M":
        k_set = _set(row[1])
        return (_set(row[0]), k_set, (len(k_set) + 1) // 2, *row[2:]), {}
    if name == "THOMAEG":
        a = _set(row[0])
        return (a, (g - len(a) + 1) // 2), {}
    if name == "RANK":
        return ([_set(x) for x in row[1:] if x >= 0], bool(row[0])), {}
    if name == "SCHOTTKY_F":
        return (sch.CASE_IDS[row[0]],), {}
    # EKLM [I J k m n]; [I0 K j_m j_n] of the representations and SCHOTTKY_R
    return (_set(row[0]), _set(row[1]), *row[2:]), {}


ORACLES = {
    "THOMAE2": oracle_thomae2, "THOMAEG": oracle_thomaeg,
    "EKLM": oracle_eklm, "EJI": oracle_eji, "GRAD2": oracle_grad2, "GRAD3": oracle_grad3,
    "GRAD4": oracle_grad4, "GRADN": oracle_gradn, "RANK": oracle_rank,
    "HESS_K3": oracle_derivative_repr,
    "HESS_K4": oracle_derivative_repr, "HESS_EQUIV": oracle_hess_equiv,
    "HESS_RANK": oracle_hessian_rank, "D3_K5": oracle_derivative_repr,
    "D3_K6": oracle_derivative_repr, "CONJ_M": oracle_conjecture, "RJ_DET": oracle_rj_det,
    "SCHOTTKY_R": oracle_schottky_r, "SCHOTTKY_F": oracle_appendix_f,
}
# the oracles' further tolerance keywords and the table keys they take
ORACLE_TOLERANCES = {"THOMAEG": (("tolerance_m3", "THOMAEG_G5"),),
                     "SCHOTTKY_R": (("det_tolerance", "SCHOTTKY_DETR"),)}
# residuals computed by the same arithmetic in the same order; GRADN sums
# its terms in ascending set order, the oracle in the order of K
BIT_EQUAL = {"GRAD2", "GRAD3", "GRAD4", "HESS_RANK", "RJ_DET"}
# record ids whose notes carry measured numbers that round with the arithmetic
ROUNDED_NOTES = {"THOMAEG", "SCHOTTKY_DETR", "SCHOTTKY_F"}
CASES = [(g, name) for g in (3, 4, 5, 6) for name in ORACLES
         if g >= FAMILIES[name].min_genus
         and (name != "SCHOTTKY_F" or g in sch.CASE_GENUS.values())]
_NUMBER = re.compile(r"[-+]?\d+\.\d+e[-+]\d+")


@pytest.mark.parametrize("g,name", CASES)
def test_batch_records_equal_oracle(random_ctx, g, name):
    # every sampled binding at g <= 5, the first 50 at g = 6
    ctx = random_ctx(g, 1)
    cfg = SuiteConfig(spec=ctx.spec, cap=500, seed=1)
    family = FAMILIES[name]
    rows = family.bindings(g, cfg, _family_rng(cfg, name))
    if g == 6:
        rows = rows[:50]
    tol = cfg.tolerance_table
    batch = family.verify(ctx, rows, tol)
    # the oracles take their tolerances as keywords, the verifiers' old API
    tols = {"tolerance": tol[name],
            **{kw: tol[key] for kw, key in ORACLE_TOLERANCES.get(name, ())}}
    want = []
    for row in rows.tolist():
        args, kw = _args(name, g, row)
        rec = ORACLES[name](ctx, *args, **tols, **kw)
        want.extend(rec if isinstance(rec, list) else [rec])
    assert len(batch) == len(want) >= len(rows) > 0
    for got, rec in zip(batch, want):
        notes = [_NUMBER.sub("#", r.notes) if r.relation_id in ROUNDED_NOTES else r.notes
                 for r in (got, rec)]
        assert (got.relation_id, got.bindings, notes[0], got.passed, got.tolerance) == \
            (rec.relation_id, rec.bindings, notes[1], rec.passed, rec.tolerance), rec.bindings
        if name in BIT_EQUAL:
            assert got.residual == rec.residual, rec.bindings
        else:
            assert abs(got.residual - rec.residual) <= 1e-3 * rec.tolerance, rec.bindings


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_gradn_kernel_gives_grad3_and_grad4(random_ctx, g):
    # GRADN at r = 2 and r = 3 on the sampled GRAD3 bindings and the
    # canonically grouped GRAD4 bindings: the same terms in the same order
    ctx = random_ctx(g, 1)
    cfg = SuiteConfig(spec=ctx.spec, cap=500, seed=1)
    for name, nk in (("GRAD3", 3), ("GRAD4", 5)):
        rows = FAMILIES[name].bindings(g, cfg, _family_rng(cfg, name))
        if name == "GRAD4":
            canonical = [[_mask(_set(b)[a] for a in pair) for pair in rel.GRAD4_PAIRS]
                         for b in rows[:, 1].tolist()]
            rows = rows[(rows[:, 4:] == canonical).all(axis=1)]
        want = FAMILIES[name].verify(ctx, rows)
        got = rel.gradn_batch(ctx, rows[:, :4])
        assert len(got) == len(want) > 0
        assert {rec.bindings["r"] for rec in got} == {(nk + 1) // 2}
        for a, b in zip(got, want):
            assert a.residual == b.residual, b.bindings

def test_mask_table_matches_char_of_set():
    for g in range(1, 6):
        table = mask_chars(g)
        n = 2 * g + 2
        assert len(table) == 1 << n
        assert not table.flags.writeable
        for mask in range(1 << n):
            want = char_of_set(g, [i for i in range(n) if mask >> i & 1]).bits
            assert table[mask] == want, (g, mask)


# --- unranked enumerations --------------------------------------------------

def test_unrank_matches_itertools():
    for n in range(13):
        for k in range(n + 1):
            got = unrank_combinations(n, k, np.arange(math.comb(n, k)))
            want = np.array(list(combinations(range(n), k)), dtype=np.int64)
            assert np.array_equal(got, want), (n, k)


def _flat(rows):
    """The rows with every tuple part as its mask."""
    return [tuple(_mask(part) if isinstance(part, tuple) else part for part in r) for r in rows]


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_enumerations_match_list_builders(g):
    # the unranked rows at every position equal the old lists, in order
    every = np.arange
    for ksize in range(min(g, 6) + 1):
        assert _i0_splits(g, ksize, every).tolist() == \
            [list(r) for r in _flat(list_i0_splits(g, ksize))], ksize
    for isize, nk in ((g - 2, 3), (g - 3, 5)):
        if isize >= 0:
            assert _kappa_splits(g, isize, nk, every).tolist() == \
                [list(r) for r in _flat(list_kappa_splits(g, isize, nk))], (isize, nk)
    eklm = list_eklm_bindings(g)
    assert _eklm_splits(g, every).tolist() == [list(r) for r in _flat(eklm)]


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6, 7])
def test_partition_samplers_match_list_builders(g):
    # same rows from the same draws, and the stream left in the same state
    for cap in (3, 10, 500, 10**6):
        for m in range((g + 1) // 2 + 1):
            old, new = np.random.default_rng([g, m, cap]), np.random.default_rng([g, m, cap])
            want = list_part_masks(g, m, cap, old)
            got = _part_masks(g, m, cap, new)
            assert got.dtype == np.int64 and np.array_equal(got, want), (m, cap)
            assert old.random() == new.random(), (m, cap)
        cfg = SuiteConfig(spec=random_curve(g, 1), cap=cap)
        old, new = np.random.default_rng([g, cap]), np.random.default_rng([g, cap])
        assert np.array_equal(_rank_bindings(g, cfg, new), list_rank_bindings(g, cfg, old))
        assert old.random() == new.random(), cap


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_cached_whole_enumerations_equal_a_fresh_computation(g):
    # at a cap that takes the enumerations whole and one that samples them,
    # every family's cached rows are those of an empty cache and of a direct
    # draw, and shared, so no caller may write them
    for cap in (10**6, 7):
        cfg = SuiteConfig(spec=random_curve(g, 1), cap=cap, seed=1)
        sampling = harness._Sampling(cap, False, 1)
        for name, family in FAMILIES.items():
            if g < family.min_genus:
                continue
            first, again = (harness._drawn(family.bindings, name, g, sampling) for _ in range(2))
            harness._drawn.cache_clear()
            fresh = harness._drawn(family.bindings, name, g, sampling)
            assert again is first and fresh is not first, (name, cap)
            assert np.array_equal(first, fresh), (name, cap)
            assert np.array_equal(fresh, family.bindings(g, cfg, _family_rng(cfg, name))), (name, cap)
            assert not fresh.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                fresh[...] = 0


# sha256 over the dtype, shape and bytes of every family's rows, in the loop
# order of the test below (caps 1, 7, 500, 10**6; heavy off, then on from
# genus 7).  Pinned from the unranker that searched each row for its free
# indices: unranking inside masks must move no row.
DRAW_DIGESTS = {
    2: "4afa48057b38c38d16028d12b5ffabc0076771c59e228269ddc77b56419e4405",
    3: "7692984bb29f50815c4a554a4eb9812cf9b517d1f5cebf47a5a41fb6de19c3bf",
    4: "4241a16213dc6791832f98be8fab68007da805affd6b5509e9d882234d0964d0",
    5: "1bea3c71e4dd915f1e4ee6b36ffc9af5dbb6eb9a1fcaaf82f5e2519f4305c89e",
    6: "f860bb8505fb786a61616e914b4ed3b9bd361fe720dcd702f028a3b865e0c4d8",
    7: "baca5a28051c7e91832c700c6e0f2c41abba0b993daa7b7a9d29d95b2bc7a18b",
    8: "b573c725ffcbc554216f1bd9cc0cc5aef5feecb66b25d8f362ca8f9ed9051b6d",
}


@pytest.mark.slow
@pytest.mark.parametrize("g", range(2, 9))
def test_a_cached_draw_is_the_direct_draw_read_only_and_seeded_once(monkeypatch, g):
    # the draw cache's contract: its key holds all a sampler reads, so its
    # rows are those of a direct draw for every family, cap and heavy flag;
    # a miss seeds the family's stream once and a second run of the shape
    # gets the same read-only array without seeding any.  Every row drawn
    # is pinned by one digest per genus.
    seeded = []
    digest = hashlib.sha256()

    def spy(*args, **kwargs):
        seeded.append(args)
        return default_rng(*args, **kwargs)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", spy)
    harness._drawn.cache_clear()
    for cap in (1, 7, 500, 10**6):
        for heavy in (False, True) if g >= 7 else (False,):
            cfg = SuiteConfig(spec=random_curve(g, 1), cap=cap, seed=1, enable_heavy=heavy)
            sampling = harness._Sampling(cap, heavy, 1)
            for name, family in FAMILIES.items():
                if g < family.min_genus:
                    continue
                direct = family.bindings(g, cfg, _family_rng(cfg, name))
                seeded.clear()
                rows = harness._drawn(family.bindings, name, g, sampling)
                assert seeded == [([1, zlib.crc32(name.encode())],)], (name, cap, heavy)
                assert rows.dtype == direct.dtype and np.array_equal(rows, direct), (name, cap, heavy)
                digest.update(repr((rows.dtype.str, rows.shape)).encode())
                digest.update(rows.tobytes())
                assert not rows.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    rows[...] = 0
                assert harness._drawn(family.bindings, name, g, sampling) is rows
                assert len(seeded) == 1, (name, cap, heavy)
    harness._drawn.cache_clear()  # the cap-10**6 rows are large
    assert digest.hexdigest() == DRAW_DIGESTS[g]


@pytest.mark.parametrize("g", [2, 3, 4])
def test_a_whole_draw_leaves_the_family_stream_untouched(g):
    # the condition that makes the cache exact: taking every position draws
    # no number, so the rows cannot depend on the seed
    for cap, drawn in ((500, False), (7, True)):
        cfg = SuiteConfig(spec=random_curve(g, 1), cap=cap, seed=1)
        rng = _family_rng(cfg, "THOMAE1")
        before = rng.bit_generator.state
        FAMILIES["THOMAE1"].bindings(g, cfg, rng)
        assert (rng.bit_generator.state != before) == drawn, cap


def test_a_thomae1_run_at_genus_2_to_4_seeds_no_generator(monkeypatch):
    # THOMAE1 takes every I_0 there (10, 35, 126 of cap 500): its stream is
    # seeded once per run shape, by the first curve of each genus, and a
    # later curve of the same shape seeds no generator
    specs = [random_curve(g, s) for s in (1, 2) for g in (2, 3, 4)]
    seeded = []

    def spy(*args, **kwargs):
        seeded.append(args)
        return default_rng(*args, **kwargs)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", spy)
    harness._drawn.cache_clear()
    thomae1 = ([1, zlib.crc32(b"THOMAE1")],)
    for i, spec in enumerate(specs):
        assert len(run_suite(SuiteConfig(spec=spec, relations=("THOMAE1",), seed=1)).records)
        assert seeded == [thomae1] * min(i + 1, 3), i
    # a sampled draw seeds its family's stream once per run shape too
    seeded.clear()
    for _ in range(2):
        run_suite(SuiteConfig(spec=specs[2], relations=("THOMAE1",), cap=7, seed=1))
    assert seeded == [thomae1]


def test_two_genus_2_curves_share_their_whole_bindings(monkeypatch):
    # THOMAE1 (10 of cap 500) and EJI (10 of 100) take every I_0 at genus 2,
    # whatever the curve and the seed
    def bindings(seed):
        cfg = SuiteConfig(spec=random_curve(2, seed), relations=("EJI", "THOMAE1"), seed=seed)
        return [(r.relation_id, r.bindings) for r in run_suite(cfg).records]

    first, second = bindings(1), bindings(2)
    harness._drawn.cache_clear()
    assert first == second == bindings(3) and len(first) == 20
    # two curves of one seed hand THOMAE1 the same array
    handed = []
    family = FAMILIES["THOMAE1"]

    def verify(ctx, rows, tol):
        handed.append(rows)
        return family.verify(ctx, rows, tol)

    monkeypatch.setitem(FAMILIES, "THOMAE1", dataclasses.replace(family, verify=verify))
    for curve_seed in (4, 5):
        run_suite(SuiteConfig(spec=random_curve(2, curve_seed), relations=("THOMAE1",), seed=1))
    assert len(handed) == 2 and handed[0] is handed[1]


# --- guards -----------------------------------------------------------------

def _plain(v) -> bool:
    if type(v) in (tuple, list):
        return all(_plain(x) for x in v)
    return type(v) in (int, str)


@pytest.mark.parametrize("g", [3, 4, 5])
def test_bindings_hold_python_types(random_ctx, g):
    report = run_suite(SuiteConfig(spec=random_curve(g, 1), cap=500, seed=1))
    assert any(rec.relation_id == "THOMAE1" for rec in report.records)
    for rec in report.records:
        assert all(_plain(v) for v in rec.bindings.values()), (rec.relation_id, rec.bindings)
    # every family hands its verifier an int array, one binding per row
    ctx = random_ctx(g, 1)
    cfg = SuiteConfig(spec=ctx.spec, cap=500, seed=1)
    for name, family in FAMILIES.items():
        if g < family.min_genus:
            continue
        rows = family.bindings(g, cfg, _family_rng(cfg, name))
        assert isinstance(rows, np.ndarray) and rows.dtype.kind == "i", name


def test_general_r_tensor_rejects_bad_j(ctx):
    with pytest.raises(ValueError, match="distinct members of J_0"):
        rel.general_r_tensor(ctx(4), np.array([[_mask((1, 2, 3, 4)), _mask((1, 2, 3)), 4, 6]]))


@pytest.mark.parametrize("g", [3, 5])
def test_suite_with_empty_batches(g):
    # cap 1 leaves HESS_K3/K4 (cap // 2), GRAD4 and, at genus 5, SCHOTTKY_R
    # (cap // 25) with no bindings
    report = run_suite(SuiteConfig(spec=random_curve(g, 2), cap=1, seed=2))
    assert report.all_passed()
    empty = ("HESS_K3", "HESS_K4", "GRAD4", "SCHOTTKY_R", "SCHOTTKY_DETR", "SCHOTTKY_A123")
    assert not any(r.relation_id in empty for r in report.records)
    if g == 5:
        assert any(r.relation_id == "SCHOTTKY_F" for r in report.records)


def test_thomaeg_builds_two_tensors_per_record(ctx, monkeypatch):
    # one batch with K and one with the alternative K per (|Im|, m) group:
    # two tensor rows per record
    rows, calls = [], []
    build = harness.general_thomae_batch

    def counted(c, a_masks, k_masks):
        calls.append(len(a_masks))
        rows.extend(zip(a_masks.tolist(), k_masks.tolist()))
        return build(c, a_masks, k_masks)

    monkeypatch.setattr(harness, "general_thomae_batch", counted)
    c = ctx(5)
    cfg = SuiteConfig(spec=c.spec, cap=100, seed=1)
    family = FAMILIES["THOMAEG"]
    records = family(c, cfg, family.bindings(c.g, cfg, _family_rng(cfg, "THOMAEG")))
    assert records and all(r.passed for r in records)
    assert len(rows) == len(set(rows)) == 2 * len(records)
    groups = {(len(r.bindings["Im"]), r.bindings["m"]) for r in records}
    assert len(calls) == 2 * len(groups)


# --- THOMAE1 ------------------------------------------------------------------

def oracle_thomae1(ctx: CurveContext, i0: IndexSet, tolerance: float = 1e-6) -> VerificationRecord:
    """THOMAE1 for one I_0 from scalar lookups: theta[I_0] over the first
    Thomae right side against the predicted phase +1."""
    ratio = ctx.const(i0) / thomae.first_thomae_rhs(ctx, i0)
    return VerificationRecord("THOMAE1", {"I0": i0}, abs(ratio - 1.0), tolerance)


@pytest.mark.parametrize("cap", [1, 7, 500])
@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_thomae1_records_equal_oracle(random_ctx, g, cap):
    ctx = random_ctx(g, 1)
    cfg = SuiteConfig(spec=ctx.spec, cap=cap, seed=1)
    # the sampler THOMAE1 used while it ran one binding at a time
    rows = _i0_splits(g, 0, _picker(_family_rng(cfg, "THOMAE1"), cap))
    family = FAMILIES["THOMAE1"]
    records = family(ctx, cfg, family.bindings(g, cfg, _family_rng(cfg, "THOMAE1")))
    assert len(records) == len(rows) == min(cap, math.comb(2 * g + 1, g))
    # the ratio kernel over every I_0 in combinations order, looked up per
    # characteristic
    sets = list(combinations(range(1, 2 * g + 2), g))
    ratios = thomae.calibrate_phases(ctx, np.array([_mask(i0) for i0 in sets]))
    by_char = {char_of_set(g, i0): ratio for i0, ratio in zip(sets, ratios.tolist())}
    tol = cfg.tolerance_table["THOMAE1"]
    for row, got in zip(rows.tolist(), records):
        i0 = _set(row[0])
        want = oracle_thomae1(ctx, i0, tolerance=tol)
        assert (got.relation_id, got.bindings, got.notes, got.passed, got.tolerance) == \
            (want.relation_id, want.bindings, want.notes, want.passed, want.tolerance), i0
        assert got.residual == abs(by_char[char_of_set(g, i0)] - 1.0), i0
        # NumPy's and Python's complex division round differently in the last bit
        assert abs(got.residual - want.residual) <= 1e-13, i0


# --- derivative tensors from the engine's tables ----------------------------

@pytest.mark.parametrize("g", [4, 5])
def test_derivs_gather_equals_theta_deriv(ctx, monkeypatch, g):
    base = ctx(g)
    c = CurveContext(spec=base.spec, periods=base.periods, engine=ThetaEngine(base.periods.tau))
    builds = []
    bins = ThetaEngine._bins

    def counted(engine, cls, order):
        builds.append(order)
        return bins(engine, cls, order)

    monkeypatch.setattr(ThetaEngine, "_bins", counted)
    masks = np.random.default_rng(g).integers(0, 1 << (2 * g + 2), size=40)
    chars = mask_chars(g)[masks].tolist()
    classes = {b & ((1 << g) - 1) for b in chars}
    assert len(classes) >= 8
    for order in (2, 3):
        got = c.derivs(masks, order)
        want = np.stack([c.engine.theta_deriv(_char(g, b), order).entries for b in chars])
        assert got.shape == (len(masks),) + (g,) * order
        assert np.array_equal(got, want), order
        assert np.array_equal(c.derivs(masks[::-1], order), want[::-1]), order
        i = [i for i in range(2 * g + 2) if masks[0] >> i & 1]
        assert np.array_equal(c.deriv(i, order).entries, want[0]), order
    # each (eps', order) table is built once, however often it is read
    assert sorted(builds) == [2] * len(classes) + [3] * len(classes)


# --- R against its formula at 30 digits --------------------------------------

def mp_r_entries(ctx: CurveContext, row: Sequence[int], m: int) -> dict:
    """The entries of R for one row [I0 K j_m j_n], keyed by their ascending
    positions in K: general_r_tensor's formula evaluated in 30-digit mpmath
    arithmetic from the same double theta constants."""
    g, i0, ks = ctx.g, row[0], [1 << k for k in _set(row[1])]
    kk, jm, jn = len(ks), 1 << row[2], 1 << row[3]
    j0 = ((1 << 2 * g + 2) - 2) ^ i0

    def th(mask):
        return mpmath.mpc(complex(ctx.consts(np.array([mask]))[0]))

    out = {}
    with mpmath.workdps(30):
        pair = {}
        for a, b in combinations(range(kk), 2):
            pair[a, b] = pair[b, a] = th(i0 ^ ks[a] ^ ks[b] ^ jn ^ jm)
        single = [th(i0 ^ q ^ jm) * th(i0 ^ q ^ jn) for q in ks]
        swap = [th(j0 ^ jn ^ jm ^ p) for p in ks]
        base = (th(j0 ^ jm) * th(j0 ^ jn)) ** (kk - m)
        for ps in combinations(range(kk), m):
            qs = [t for t in range(kk) if t not in ps]
            val = mpmath.mpf(_entry_sign(ps, kk))
            for a, b in list(combinations(ps, 2)) + list(combinations(qs, 2)):
                val *= pair[a, b]
            for p in ps if kk == 2 * m else qs:
                val *= swap[p]
            for q in qs:
                val *= single[q]
                for p in ps:
                    val /= pair[p, q]
            out[ps] = val / base
    return out


# Measured relative error of a batch entry (random_curve(g, 1), g = 3..6):
# at most 6.4e-16 over the bindings below, and 7.3e-16 (6.6 units of
# 2^-53) over the first 200 sampled bindings of each family, 5,671 entries.
# An entry takes at most 22 rounded products and quotients.
R_ORACLE_BOUND = 2e-15


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_r_tensor_against_mpmath(random_ctx, g):
    ctx = random_ctx(g, 1)
    cfg = SuiteConfig(spec=ctx.spec, cap=500, seed=1)
    checked = 0
    for name in ("HESS_K3", "HESS_K4", "D3_K5", "D3_K6", "CONJ_M"):
        if g < FAMILIES[name].min_genus:
            continue
        rows = FAMILIES[name].bindings(g, cfg, _family_rng(cfg, name))[:12]
        for size in sorted(set(np.bitwise_count(rows[:, 1]).tolist())):  # CONJ_M mixes |K|
            batch_rows = rows[np.bitwise_count(rows[:, 1]) == size]
            m = (size + 1) // 2
            tensors = rel.general_r_tensor(ctx, batch_rows)
            for row, t in zip(batch_rows.tolist(), tensors):
                entries = mp_r_entries(ctx, row, m)
                # entries with a repeated position vanish
                assert np.count_nonzero(t) == len(entries) * math.factorial(m), (name, row)
                for ps, want in entries.items():
                    with mpmath.workdps(30):
                        for perm in permutations(ps):
                            err = abs(mpmath.mpc(complex(t[perm])) - want) / abs(want)
                            assert err <= R_ORACLE_BOUND, (name, row, ps, float(err))
                checked += 1
    assert checked >= 12
