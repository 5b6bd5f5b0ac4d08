"""Numerical verification of the theta-constant relations.

Every operation evaluates both sides of one relation instance from cached
theta values and returns a :class:`VerificationRecord` whose residual is
normalized by the largest additive term, so near-cancellation identities are
judged fairly.  Families:

* EKLM / EJI      -- theta-constant cross ratios (squared / fourth powers),
* GRAD2..GRADN    -- linear relations between gradient vectors of
                     multiplicity-1 derivative theta constants,
* RANK            -- rank of a collection of gradients vs the combinatorial
                     prediction from the intersection pattern of partitions,
* HESS_K3/K4,     -- one statement at orders m = 2, 3 and any m: the order-m
  D3_K5/K6,          derivative tensor of theta[I0 - K] equals
  CONJ_M             R . A^{(x)m} / theta[I0]^{m-1}, A the gradients of
                     theta[I0 - p] for p in K, |K| in {2m-1, 2m}, R a
                     symmetric tensor of theta constants.  One verifier,
                     :func:`derivative_repr`, takes m and the record id from
                     |K| (3, 4, 5, 6); :func:`conjecture_m_repr` is the same
                     body at a given m, up to a global sign,
* HESS_EQUIV      -- two representations of the same Hessian agree,
* HESS_RANK       -- rank of the Hessian (3 in genus > 3, full at g = 3),
* RJ_DET          -- the hyperelliptic Riemann-Jacobi derivative formula.

Index-set conventions: 0 is the infinity index, smallest in the set order;
all kappa bindings are ascending; signs alternate in ascending set order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .context import CurveContext
from .indexsets import IndexSet, complement_finite, drop, iset, replace
from .thomae import FOURTH_ROOTS, snap_phase

TINY = 1e-300
# singular values below this share of the largest do not count toward a rank
RANK_SVD_CUT = 1e-8


@dataclass
class VerificationRecord:
    relation_id: str
    bindings: dict
    residual: float
    tolerance: float
    notes: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.tolerance)

    def as_dict(self) -> dict:
        def jsonable(v):
            if isinstance(v, tuple):
                return [jsonable(x) for x in v]
            if isinstance(v, (np.integer,)):
                return int(v)
            if isinstance(v, (np.floating,)):
                return float(v)
            return v

        return {
            "relation_id": self.relation_id,
            "bindings": {k: jsonable(v) for k, v in self.bindings.items()},
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
            "notes": self.notes,
        }


def vector_identity_residual(terms: Sequence[np.ndarray]) -> float:
    """max_n |sum_i T_i[n]| / (largest |T_i[n]| in that component)."""
    stack = np.stack([np.asarray(t, dtype=complex) for t in terms])
    total = np.abs(np.sum(stack, axis=0))
    per_comp = np.max(np.abs(stack), axis=0)
    floor = 1e-3 * np.max(per_comp) + TINY
    return float(np.max(total / np.maximum(per_comp, floor)))


def scalar_identity_residual(terms: Sequence[complex]) -> float:
    mags = [abs(t) for t in terms]
    return abs(sum(terms)) / (max(mags) + TINY)


def tensor_match_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs))) + TINY
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# First-Thomae corollaries: cross ratios of theta constants
# ---------------------------------------------------------------------------

def verify_eklm(
    ctx: CurveContext, i_set: Iterable[int], j_set: Iterable[int], k: int, m: int, n: int,
    tolerance: float = 1e-8,
) -> VerificationRecord:
    """(e_k - e_m)/(e_k - e_n) equals a squared theta cross ratio up to a
    fourth root of unity."""
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
    phase, _ = snap_phase(lhs / rhs, FOURTH_ROOTS)
    residual = abs(lhs - phase * rhs) / max(abs(lhs), abs(rhs))
    return VerificationRecord(
        "EKLM",
        {"I": i_set, "J": j_set, "k": k, "m": m, "n": n},
        residual,
        tolerance,
        notes=f"phase={phase:.0f}" if phase.imag == 0 else f"phase={phase}",
    )


def verify_eji(
    ctx: CurveContext, i0: Iterable[int], i_k: int, i_l: int, j_n: int, j_m: int,
    tolerance: float = 1e-8,
) -> VerificationRecord:
    """Branch-point product over J_0 as a ratio of fourth powers; the right
    side must not depend on the choice of (j_n, j_m)."""
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
    sign = 1.0 if abs(lhs - rhs) < abs(lhs + rhs) else -1.0
    residual = abs(lhs - sign * rhs) / max(abs(lhs), abs(rhs))
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
        notes=f"sign={sign:+.0f}",
    )


# ---------------------------------------------------------------------------
# Gradient (multiplicity-1) linear relations
# ---------------------------------------------------------------------------

def verify_grad2(
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
    lhs = pref * ctx.grad(drop(i0, kappa1, kappa2))
    t1 = (
        ctx.const(replace(i0, (kappa1,), (j_m,)))
        * ctx.const(replace(i0, (kappa1,), (j_n,)))
        * ctx.const(replace(j0, (j_m, j_n), (kappa2,)))
        * ctx.grad(drop(i0, kappa2))
    )
    t2 = (
        ctx.const(replace(i0, (kappa2,), (j_m,)))
        * ctx.const(replace(i0, (kappa2,), (j_n,)))
        * ctx.const(replace(j0, (j_m, j_n), (kappa1,)))
        * ctx.grad(drop(i0, kappa1))
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
        out.append(sign * coeff * ctx.grad(iset(i_set + (ka,))))
    return out


def verify_grad3(
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
            np.stack([ctx.grad(iset(i_set + (kappas[a],))), ctx.grad(iset(i_set + (kappas[b],)))]),
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


def verify_grad4(
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
        vec = ctx.grad(sets[t])
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


def verify_gradN(
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
        terms.append((-1) ** (r - pos) * coeff * ctx.grad(iset(i_set + k_red)))
    coeff = (
        ctx.const(iset(drop(j_set, j_n) + rest))
        * ctx.const(iset(drop(j_set, j_m) + rest))
        * ctx.const(iset(jmn + k_set))
    )
    terms.append((-1) ** r * coeff * ctx.grad(iset(i_set + rest)))
    residual = vector_identity_residual(terms)
    return VerificationRecord(
        "GRADN",
        {"I": i_set, "B": b_set, "r": r, "j_m": j_m, "j_n": j_n},
        residual,
        tolerance,
        notes="conjecture: residual reported" if r >= 4 else "",
    )


# ---------------------------------------------------------------------------
# Rank of gradient collections
# ---------------------------------------------------------------------------

def predicted_collection_rank(g: int, full_parts: Sequence[frozenset]) -> int:
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


def collection_rank(ctx: CurveContext, sets: Sequence[Iterable[int]]) -> tuple[int, int]:
    """(observed, predicted) rank of a collection of multiplicity-1 gradients."""
    parts = []
    rows = []
    for s in sets:
        p = ctx.partition(s)
        if p.multiplicity() != 1:
            raise ValueError(f"{tuple(s)} is not a multiplicity-1 index set")
        parts.append(frozenset(p.full_part()))
        rows.append(ctx.grad(p.part))
    dedup = list(dict.fromkeys(parts))
    rows = [rows[parts.index(p)] for p in dedup]
    sv = np.linalg.svd(np.stack(rows), compute_uv=False)
    observed = int(np.sum(sv > RANK_SVD_CUT * sv[0]))
    predicted = predicted_collection_rank(ctx.g, dedup)
    return observed, predicted


# ---------------------------------------------------------------------------
# Quadratic / cubic / general representations of derivative theta constants
# ---------------------------------------------------------------------------

def _entry_sign(positions: Sequence[int], kk: int) -> float:
    """(-1)^(sum of the 1-based positions + offset) for 0-based positions."""
    # verified for m = 2, 3; the odd-|K| offset alternates with m and the
    # m = 4 evidence runs match the extrapolation
    m = len(positions)
    offset = m % 2 if (kk == 2 * m - 1 and m >= 2) else 0
    return float((-1) ** (sum(positions) + m + offset))


def general_r_tensor(
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


def representation_tensor(
    ctx: CurveContext, i0: Iterable[int], k_set: Iterable[int], j_m: int, j_n: int, order: int
) -> np.ndarray:
    """Predicted order-m derivative tensor of theta[I0 - K]: R applied to the
    gradients of theta[I0 - p], p in K, divided by theta[I0]^(m-1)."""
    i0, k_set = iset(i0), iset(k_set)
    if not set(k_set) <= set(i0):
        raise ValueError("K must be a subset of I_0")
    if len(i0) != ctx.g or 0 in i0:
        raise ValueError("I_0 must be the g finite indices of a multiplicity-0 set")
    r = general_r_tensor(ctx, i0, k_set, j_m, j_n, order)
    a = np.stack([ctx.grad(drop(i0, p)) for p in k_set])  # |K| x g
    theta0 = ctx.const(i0)
    out = r
    for _ in range(order):
        out = np.tensordot(out, a, axes=([0], [0]))
    return out / theta0 ** (order - 1)


# |K| -> (record id, default tolerance) of the order-(|K|+1)//2 representation
REPRESENTATION_RECORDS = {
    3: ("HESS_K3", 1e-6),
    4: ("HESS_K4", 1e-6),
    5: ("D3_K5", 1e-4),
    6: ("D3_K6", 1e-4),
}


def _repr_tensors(
    ctx: CurveContext, i0: IndexSet, k_set: IndexSet, j_m: int, j_n: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """(predicted, computed) order-m derivative tensor of theta[I0 - K]."""
    pred = representation_tensor(ctx, i0, k_set, j_m, j_n, order)
    return pred, ctx.deriv(drop(i0, *k_set), order).entries


def derivative_repr(
    ctx: CurveContext, i0: Iterable[int], k_set: Iterable[int], j_m: int, j_n: int,
    tolerance: float | None = None,
) -> VerificationRecord:
    """Derivative theta constants of order m = (|K|+1)//2 as forms in the
    gradients: Hessians for |K| = 3, 4 (HESS_K3/K4), third derivatives for
    |K| = 5, 6 (D3_K5/K6).  The tolerance defaults to the record's own."""
    i0, k_set = iset(i0), iset(k_set)
    if len(k_set) not in REPRESENTATION_RECORDS:
        raise ValueError(f"|K| must be one of {sorted(REPRESENTATION_RECORDS)}, got {len(k_set)}")
    relation_id, default_tol = REPRESENTATION_RECORDS[len(k_set)]
    pred, target = _repr_tensors(ctx, i0, k_set, j_m, j_n, (len(k_set) + 1) // 2)
    return VerificationRecord(
        relation_id,
        {"I0": i0, "K": k_set, "j_m": j_m, "j_n": j_n},
        tensor_match_residual(pred, target),
        default_tol if tolerance is None else tolerance,
    )


def hessian_repr_equiv(
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
    va = representation_tensor(ctx, ia, ka, jma, jna, 2)
    vb = representation_tensor(ctx, ib, kb, jmb, jnb, 2)
    return VerificationRecord(
        "HESS_EQUIV",
        {"I0_a": iset(ia), "K_a": iset(ka), "I0_b": iset(ib), "K_b": iset(kb),
         "j_a": (jma, jna), "j_b": (jmb, jnb)},
        tensor_match_residual(va, vb),
        tolerance,
    )


def hessian_rank(
    ctx: CurveContext, i2: Iterable[int], tolerance: float = 1e-8
) -> VerificationRecord:
    """Rank of the Hessian of a multiplicity-2 characteristic: exactly 3 for
    g > 3 (sigma_4/sigma_1 < tol, sigma_3/sigma_1 > 1e-6), full at g = 3."""
    part = ctx.partition(i2)
    if part.multiplicity() != 2:
        raise ValueError(f"{tuple(i2)} is not a multiplicity-2 index set")
    h = ctx.hess(part.part)
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


def conjecture_m_repr(
    ctx: CurveContext, i0: Iterable[int], k_set: Iterable[int], order: int,
    j_m: int, j_n: int, tolerance: float = 1e-3,
) -> VerificationRecord:
    """The same representation at order m = order, matched up to a global
    sign; for m >= 4 the residual is reported only."""
    i0, k_set = iset(i0), iset(k_set)
    if order >= 4 and ctx.g < 7:
        raise ValueError("multiplicity >= 4 requires genus >= 7")
    pred, target = _repr_tensors(ctx, i0, k_set, j_m, j_n, order)
    residual, sign = tensor_match_residual(pred, target), 1
    flipped = tensor_match_residual(-pred, target)
    if flipped < residual:
        residual, sign = flipped, -1
    return VerificationRecord(
        "CONJ_M",
        {"I0": i0, "K": k_set, "m": order, "j_m": j_m, "j_n": j_n},
        residual,
        tolerance,
        notes=f"global sign {sign:+d}; conjecture: residual reported" if order >= 4 else "",
    )


# ---------------------------------------------------------------------------
# Riemann-Jacobi derivative formula
# ---------------------------------------------------------------------------

def riemann_jacobi_det(
    ctx: CurveContext, i0: Iterable[int], tolerance: float = 1e-6
) -> VerificationRecord:
    """|det(grad theta[I0^{(i)}], i in I0)| = pi^g |theta[I0]| *
    prod_{j in J0} |theta[J0^{(j)}]|   (g+2 even constants; the genus-1 case
    is Jacobi's derivative formula with its three theta constants)."""
    i0 = iset(i0)
    if len(i0) != ctx.g or 0 in i0 or ctx.partition(i0).multiplicity() != 0:
        raise ValueError("I_0 must be a multiplicity-0 set of g finite indices")
    j0 = complement_finite(ctx.spec.n_finite, i0)
    mat = np.stack([ctx.grad(drop(i0, i)) for i in i0], axis=1)
    lhs = abs(np.linalg.det(mat))
    rhs = np.pi ** ctx.g * abs(ctx.const(i0))
    for j in j0:
        rhs *= abs(ctx.const(drop(j0, j)))
    residual = abs(lhs - rhs) / max(lhs, rhs)
    return VerificationRecord("RJ_DET", {"I0": i0}, residual, tolerance)
