"""Numerical verification of the theta-constant relations.

Every verifier evaluates both sides of one relation for every row of an int
array of bindings, normalizes each residual by the largest additive term, so
near-cancellation identities are judged fairly, and returns the records of
all rows as one :class:`RecordTable` of columns, built by
:func:`make_records`, the one owner of the record format and of the
precondition override: a record whose precondition fails cannot judge its
identity, and reads at least 1.0.  Five checks pass such a
``precondition_failed`` mask:

* GRAD4           -- its first three gradients have sigma3/sigma1 < 1e-6,
* HESS_RANK       -- sigma3/sigma1 <= 1e-6 (its own residual is
                     sigma4/sigma1, and 0 at g = 3),
* THOMAEG         -- K-independence above 1e-8 or ratio form above 1e-10
                     (in ``harness``),
* SCHOTTKY_DETR   -- sigma3/sigma1 or the smallest 3x3 minor of R below
                     1e-6 (in :mod:`schottky`),
* SCHOTTKY_F      -- the best sign pattern is not the printed one (in
                     :mod:`schottky`).

Families:

* EKLM / EJI      -- theta-constant cross ratios (squared / fourth powers)
                     against the modulus of a branch-point quotient,
* GRAD2..GRADN    -- linear relations between gradient vectors of
                     multiplicity-1 derivative theta constants; GRAD3 and
                     GRAD4 are GRADN at r = 2 and 3, and all three run
                     through one kernel, :func:`_gradient_residuals`,
* RANK            -- rank of a collection of gradients vs the combinatorial
                     prediction from the intersection pattern of partitions
                     (:func:`rank_batch`: one gather and one batched SVD per
                     collection size),
* HESS_K3/K4,     -- one statement at orders m = 2, 3 and any m: the order-m
  D3_K5/K6,          derivative tensor of theta[I0 - K] equals
  CONJ_M             R . A^{(x)m} / theta[I0]^{m-1}, A the gradients of
                     theta[I0 - p] for p in K, m = (|K|+1)//2, R a
                     symmetric tensor of theta constants.  Both verifiers
                     run :func:`_repr_residuals` over the rows of each |K|:
                     :func:`derivative_batch` takes the record id from |K|
                     (3, 4, 5, 6), :func:`conjecture_batch` takes CONJ_M,
* HESS_EQUIV      -- two representations of the same Hessian agree,
* HESS_RANK       -- rank of the Hessian (3 in genus > 3, full at g = 3),
* RJ_DET          -- the hyperelliptic Riemann-Jacobi derivative formula,
                     signed.

Every family compares the two sides with their predicted phase or sign;
none fits one.  A verifier ``verify(ctx, binds, tol)`` reads the tolerance
of each record it writes from ``tol`` under the record's kind.

The Thomae families live in ``harness`` on :mod:`thomae`'s batched kernel,
the Schottky families in :mod:`schottky`; every family has this shape.

Bindings.  A row holds the slots of one binding, every index set as one
bit-mask column (bit i = index i), so no row's width depends on g.  Two
row shapes serve most families: [I0 K j_m j_n] (EJI, GRAD2, HESS_K3/K4,
D3_K5/K6, CONJ_M and SCHOTTKY_R; RJ_DET reads its first column and
HESS_EQUIV two such rows side by side) and [I B j_m j_n] (GRAD3, GRAD4 and
GRADN; GRAD4 adds its four pair masks S).  EKLM reads [I J k m n], RANK
[degenerate | part masks] and HESS_RANK [I2].  A record table keeps every
set as the mask its row holds; only the JSON writer and the rows of
:class:`VerificationRecord` turn masks into indices.  Where the sets of one
slot differ in size from row to row, the verifier groups the rows by size.  A
verifier takes at least one row: the width of a set's indices comes from its
masks, and the harness runs no verifier without rows.  The substitution
I^{(a -> b)} is I ^ a ^ b,
and :meth:`CurveContext.consts` / :meth:`CurveContext.grads` /
:meth:`CurveContext.derivs` gather the theta values of a whole (B, ...)
mask array from the curve's stores; the arithmetic then runs once over all
B rows, in plain NumPy.  Coefficient products are reduced along a trailing
axis, which rounds as Python's scalar products do, so GRAD2/3/4 residuals
equal the per-binding formulas bit for bit; the other families round in
another order, far below their tolerances, and R agrees with a 30-digit
evaluation of its formula to a few units of 2^-53.

Index-set conventions: 0 is the infinity index, smallest in the set order;
all kappa bindings are ascending; signs alternate in ascending set order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .characteristics import completed_part
from .context import CurveContext
from .indexsets import finite_mask, index_rows, index_set, low_indices

TINY = 1e-300
# The tolerance of each record kind, read-only; a run overlays its overrides.
DEFAULT_TOLERANCES = MappingProxyType({
    "THOMAE1": 1e-6,
    "THOMAE2": 1e-6,
    "THOMAEG": 1e-5,
    "THOMAEG_G5": 1e-4,
    "EKLM": 1e-8,
    "EJI": 1e-8,
    "GRAD2": 1e-8,
    "GRAD3": 1e-8,
    "GRAD4": 1e-8,
    "GRADN": 1e-6,
    "RANK": 0.5,
    "HESS_K3": 1e-6,
    "HESS_K4": 1e-6,
    "HESS_EQUIV": 1e-8,
    "HESS_RANK": 1e-8,
    "D3_K5": 1e-4,
    "D3_K6": 1e-4,
    "CONJ_M": 1e-3,
    "RJ_DET": 1e-6,
    "SCHOTTKY_R": 1e-8,
    "SCHOTTKY_DETR": 1e-10,
    "SCHOTTKY_F": 1e-7,
})
# singular values below this share of the largest do not count toward a rank
RANK_SVD_CUT = 1e-8


@dataclass
class VerificationRecord:
    """One row of a :class:`RecordTable` in Python values, for tests and the
    benchmark, which read records one by one.  A run builds none."""

    relation_id: str
    bindings: dict
    residual: float
    tolerance: float
    notes: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.tolerance)

    def as_dict(self) -> dict:
        return {
            "relation_id": self.relation_id,
            "bindings": dict(self.bindings),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
            "notes": self.notes,
        }


UNBOUND = (None, -1)  # the column key of a row that does not bind a slot


@dataclass(frozen=True, eq=False)
class RecordTable:
    """The records of one verifier call as columns (:func:`make_records`):
    ``relation_id`` and ``notes`` one value for all rows or a list of one
    per row, ``residual`` and ``tolerance`` float arrays, and the binding
    ``slots`` in order, those named in ``masks`` holding index masks.  Its
    rows are :class:`VerificationRecord` views, read through :meth:`rows`."""

    relation_id: str | list
    slots: dict
    masks: frozenset
    residual: np.ndarray
    tolerance: np.ndarray
    notes: str | list

    def __len__(self) -> int:
        return len(self.residual)

    @property
    def passed(self) -> np.ndarray:
        return self.residual < self.tolerance  # a NaN residual fails

    def column(self, values) -> list:
        """One value per row of ``relation_id``, ``notes`` or a slot, whose
        values become hashable keys: ints, tuples of ints or its list."""
        if isinstance(values, str):
            return [values] * len(self)
        if isinstance(values, list):
            return values
        return values.tolist() if values.ndim == 1 else list(map(tuple, values.tolist()))

    def bound(self, name: str, key):
        """What a row whose slot ``name`` holds ``key`` binds: None for an
        :data:`UNBOUND` key, the index set of a mask, the sets of a row of
        masks without its -1 pads, or else the key itself."""
        if key in UNBOUND:
            return None
        if name not in self.masks:
            return key
        if isinstance(key, int):
            return index_set(key)
        return tuple(index_set(m) for m in key if m != -1)

    def rows(self, at: Iterable[int] | None = None) -> Iterator[VerificationRecord]:
        """The rows at the given positions, every row by default, in order:
        the one reader of rows."""
        ids, notes = (self.column(v) for v in (self.relation_id, self.notes))
        slots = [(name, self.column(values)) for name, values in self.slots.items()]
        for i in range(len(self)) if at is None else at:
            binds = {name: value for name, keys in slots
                     if (value := self.bound(name, keys[i])) is not None}
            yield VerificationRecord(ids[i], binds, float(self.residual[i]),
                                     float(self.tolerance[i]), notes[i])


def make_records(kind, residual, tolerance, notes="", precondition_failed=None, masks=(),
                 **bindings) -> RecordTable:
    """The table of one record per entry of ``residual``; every verifier
    builds its records here.  ``kind``, ``tolerance`` and ``notes`` are one
    value for all records, or a list of one per record.  Each keyword is a
    binding slot, an int array as the verifier holds it (a row binds an
    int, or a tuple of its row) or a list of values; a row holding -1 (None
    in a list) does not bind the slot.  The slots named in ``masks`` hold
    index masks, or rows of them padded with -1.  Where
    ``precondition_failed`` is true the identity cannot be judged, and the
    residual becomes at least 1.0, past every default tolerance."""
    residual = np.asarray(residual, dtype=float)
    if precondition_failed is not None:
        residual = np.where(precondition_failed, np.maximum(residual, 1.0), residual)
    n = len(residual)
    columns = [v for v in (kind, notes) if isinstance(v, list)] + list(bindings.values())
    if any(len(v) != n for v in columns):
        raise ValueError(f"{n} residuals, but a column of another length")
    tolerance = np.broadcast_to(np.asarray(tolerance, dtype=float), (n,))
    return RecordTable(kind, bindings, frozenset(masks), residual, tolerance, notes)


def _vector_residuals(terms: np.ndarray) -> np.ndarray:
    """Per row of a (B, T, g) term array: max_n |sum_i T_i[n]| / (largest
    |T_i[n]| in that component)."""
    total = np.abs(np.sum(terms, axis=1))
    per_comp = np.max(np.abs(terms), axis=1)
    floor = 1e-3 * np.max(per_comp, axis=1, keepdims=True) + TINY
    return np.max(total / np.maximum(per_comp, floor), axis=1)


def _match_residuals(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per row (per entry of 1-d arrays): max |lhs - rhs| over the largest
    |entry| of either side."""
    axes = tuple(range(1, lhs.ndim))
    scale = np.maximum(np.max(np.abs(lhs), axis=axes), np.max(np.abs(rhs), axis=axes)) + TINY
    return np.max(np.abs(lhs - rhs), axis=axes) / scale


def _groups(keys: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(key, positions of the rows with that key) for every distinct value
    of a 1-d int array, ascending."""
    return [(k, np.flatnonzero(keys == k)) for k in sorted(set(keys.tolist()))]


# ---------------------------------------------------------------------------
# First-Thomae corollaries: cross ratios of theta constants
# ---------------------------------------------------------------------------

def eklm_batch(ctx: CurveContext, binds: np.ndarray,
               tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """EKLM for every row [I J k m n] of binds (|I| = |J| = g-1): the
    modulus of (e_k - e_m)/(e_k - e_n) against the right side, predicted
    positive: by the first Thomae formula, with phase +1, each of its four
    constants is (det omega/pi^g)^{1/2} times a positive number, and that
    factor cancels.  The quotient takes either sign with the order of k, m
    and n (positive in 1,596 records of ``random_curve(g, s)``, g = 2..7 at
    s = 1-3 and g = 8 at s = 2, negative in 1,624)."""
    g = ctx.g
    i_mask, j_mask = binds[:, 0], binds[:, 1]
    k, m, n = binds[:, 2:].T
    bm, bn = 1 << m, 1 << n
    if np.any((np.bitwise_count(i_mask) != g - 1) | (np.bitwise_count(j_mask) != g - 1)
              | (i_mask | j_mask | 1 << k | bm | bn != finite_mask(g))):
        raise ValueError("I, J, {k,m,n} must partition the finite indices")
    e = np.asarray(ctx.spec.branch_points)
    lhs = (e[k - 1] - e[m - 1]) / (e[k - 1] - e[n - 1])
    c = ctx.consts(np.stack([i_mask | bn, j_mask | bn, i_mask | bm, j_mask | bm], axis=1))
    rhs = c[:, 0] ** 2 * c[:, 1] ** 2 / (c[:, 2] ** 2 * c[:, 3] ** 2)
    return make_records("EKLM", _match_residuals(np.abs(lhs), rhs), tol["EKLM"], masks=("I", "J"),
                        I=i_mask, J=j_mask, k=k, m=m, n=n)


def eji_batch(ctx: CurveContext, binds: np.ndarray,
              tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """EJI for every row [I0 K j_n j_m] of binds, K = {i_k < i_l} in I0: the
    modulus of the branch-point quotient against the right side, a product
    of fourth powers of theta constants, each i^{eps.eps'} times a real
    number (tau = iY), so predicted positive.  The quotient takes either
    sign, so a right side of any other sign or phase fails.

    The right side must not depend on the choice of (j_n, j_m): the record
    also compares it with the swapped pair and, where J0 has two more
    indices, with the smallest pair of them."""
    g = ctx.g
    i0 = binds[:, 0]
    (ik, il), (jn, jm) = index_rows(binds[:, 1]).T, binds[:, 2:].T
    j0 = finite_mask(g) ^ i0
    e = np.asarray(ctx.spec.branch_points)
    idx = np.arange(1, 2 * g + 2)
    diff = e[ik - 1][:, None] - e[idx - 1]  # (B, n): e_{i_k} - e_i
    member = (i0[:, None] >> idx & 1).astype(bool)
    num = np.prod(np.where(member, 1.0, diff), axis=1)
    den = (e[ik - 1] - e[il - 1]) ** 2 * np.prod(
        np.where(member & (idx != ik[:, None]), diff, 1.0), axis=1
    )
    lhs = num / den
    bk, bl = 1 << ik, 1 << il

    def rhs_for(bn, bm):
        c = ctx.consts(np.stack([
            i0 ^ bk ^ bn, i0 ^ bk ^ bm, j0 ^ bn ^ bm ^ bl,
            i0 ^ bk ^ bl ^ bn ^ bm, j0 ^ bm, j0 ^ bn,
        ], axis=1)) ** 4
        return c[:, 0] * c[:, 1] * c[:, 2] / (c[:, 3] * c[:, 4] * c[:, 5])

    bn, bm = 1 << jn, 1 << jm
    rhs = rhs_for(bn, bm)
    residual = _match_residuals(np.abs(lhs), rhs)
    alts = [(bm, bn)]
    if g >= 3:  # the first pair of J0 avoiding j_n, j_m
        low = 1 << low_indices(j0 ^ bn ^ bm, 2)
        alts.append((low[:, 0], low[:, 1]))
    for pair in alts:
        alt = rhs_for(*pair)
        residual = np.maximum(residual, _match_residuals(alt, rhs))
    return make_records("EJI", residual, tol["EJI"], masks=("I0",), I0=i0, i_k=ik, i_l=il,
                        j_n=jn, j_m=jm)


# ---------------------------------------------------------------------------
# Gradient (multiplicity-1) linear relations
# ---------------------------------------------------------------------------

def grad2_batch(ctx: CurveContext, binds: np.ndarray,
                tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """GRAD2 for every row [I0 K j_m j_n] of binds, K = {kappa1 < kappa2}."""
    i0, kappas = binds[:, 0], index_rows(binds[:, 1])
    (k1, k2), (jm, jn) = (1 << kappas).T, (1 << binds[:, 2:]).T
    j0 = finite_mask(ctx.g) ^ i0
    coeff = ctx.consts(np.stack([
        np.stack([i0 ^ k1 ^ k2 ^ jm ^ jn, j0 ^ jm, j0 ^ jn], axis=1),
        np.stack([i0 ^ k1 ^ jm, i0 ^ k1 ^ jn, j0 ^ jm ^ jn ^ k2], axis=1),
        np.stack([i0 ^ k2 ^ jm, i0 ^ k2 ^ jn, j0 ^ jm ^ jn ^ k1], axis=1),
    ], axis=1)).prod(axis=2)
    grads = ctx.grads(np.stack([i0 ^ k1 ^ k2, i0 ^ k2, i0 ^ k1], axis=1))
    # lhs - t1 + t2
    residual = _vector_residuals(coeff[..., None] * grads * np.array([1, -1, 1])[:, None])
    return make_records("GRAD2", residual, tol["GRAD2"], masks=("I0",), I0=i0,
                        kappa1=kappas[:, 0], kappa2=kappas[:, 1], j_m=binds[:, 2], j_n=binds[:, 3])


def _gradient_residuals(
    ctx: CurveContext, i_mask: np.ndarray, b_mask: np.ndarray, jm: np.ndarray, jn: np.ndarray,
    subsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The (r+1)-term gradient relation for every row: index set I, kappa
    set B, the bits of j_m and j_n, and the T subsets S of B whose gradients
    enter, all as masks ((B,) each, subsets (B, T)).

    With J the indices outside I and B, term S is

        th[(J^{j_n})^S] th[(J^{j_m})^S] th[(J^{j_m j_n} ^ B)^S] grad th[I + S],

    and the signs alternate in ascending order of the sets I + S, which for
    sets of one size is the order of their masks.  Returns the residuals
    and the gradients, in that order."""
    j = (finite_mask(ctx.g) | 1) ^ i_mask ^ b_mask
    s = np.take_along_axis(subsets, np.argsort(subsets, axis=1, kind="stable"), axis=1)
    coeff = ctx.consts(np.stack([
        (j ^ jn)[:, None] ^ s, (j ^ jm)[:, None] ^ s, (j ^ jm ^ jn ^ b_mask)[:, None] ^ s,
    ], axis=2)).prod(axis=2) * (-1.0) ** np.arange(s.shape[1])
    grads = ctx.grads(i_mask[:, None] | s)
    return _vector_residuals(coeff[..., None] * grads), grads


def _pair_ratios(rows: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """sigma2/sigma1 of the 2 x g matrix [a; b], a = rows[..., p, :] and
    b = rows[..., q, :], for every (p, q) in pairs: (..., len(pairs)).

    In closed form: sigma1^2 + sigma2^2 = t = |a|^2 + |b|^2, and by the
    Cauchy-Binet (Lagrange) identity sigma1^2 sigma2^2 = d = sum_{i<j}
    |a_i b_j - a_j b_i|^2, which has no cancellation as the pair becomes
    dependent.  Then sigma1^2 = (t + sqrt(max(t^2 - 4d, 0))) / 2 and
    sigma2/sigma1 = sqrt(d) / sigma1^2.  d is summed one index pair (i, j)
    at a time, so no temporary is larger than the result."""
    p, q = np.array(pairs).T
    norms = (np.einsum("...i,...i->...", rows.real, rows.real)
             + np.einsum("...i,...i->...", rows.imag, rows.imag))
    t = norms[..., p] + norms[..., q]
    d = np.zeros(t.shape)
    for i, j in combinations(range(rows.shape[-1]), 2):
        ci, cj = rows[..., i], rows[..., j]
        minor = ci[..., p] * cj[..., q] - cj[..., p] * ci[..., q]
        d += minor.real ** 2 + minor.imag ** 2
    return np.sqrt(d) / ((t + np.sqrt(np.maximum(t * t - 4 * d, 0))) / 2)


def grad3_batch(ctx: CurveContext, binds: np.ndarray,
                tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """GRAD3 for every row [I B j_m j_n] of binds (|I| = g-2, |B| = 3, 0
    allowed in B): GRADN at r = 2, S the single kappas of B.  Any two of the
    three gradients must be linearly independent: a pair whose
    sigma2/sigma1 (:func:`_pair_ratios`) is below 1e-6 is noted."""
    kappas = index_rows(binds[:, 1])
    jm, jn = (1 << binds[:, 2:]).T
    residual, grads = _gradient_residuals(ctx, binds[:, 0], binds[:, 1], jm, jn, 1 << kappas)
    pairs = list(combinations(range(3), 2))
    ratios = _pair_ratios(grads, pairs)
    flagged = ratios < 1e-6
    notes = [""] * len(binds)
    for row in np.flatnonzero(flagged.any(axis=1)).tolist():
        kap = kappas[row].tolist()
        notes[row] = "; ".join(f"pair ({kap[p]},{kap[q]}) nearly dependent: {r:.2e}"
                               for (p, q), r, bad in zip(pairs, ratios[row].tolist(),
                                                         flagged[row].tolist()) if bad)
    return make_records("GRAD3", residual, tol["GRAD3"], notes=notes, masks=("I",),
                        I=binds[:, 0], kappas=kappas, j_m=binds[:, 2], j_n=binds[:, 3])


# the canonical grouping ((k1k2), (k1k3), (k2k3), (k4k5)), and the regrouped
# variant ((k2k3), (k1k4), (k2k5), (k3k5)), as positions in the five kappas
GRAD4_PAIRS = ((0, 1), (0, 2), (1, 2), (3, 4))
GRAD4_REGROUPED = ((1, 2), (0, 3), (1, 4), (2, 4))


def grad4_batch(ctx: CurveContext, binds: np.ndarray,
                tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """GRAD4 for every row [I B j_m j_n S1 S2 S3 S4] of binds (|I| = g-3,
    |B| = 5, each S a pair of kappas in B): GRADN at r = 3 with the pairs S,
    canonical or regrouped.  The first three gradients must have rank 3."""
    jm, jn = (1 << binds[:, 2:4]).T
    residual, grads = _gradient_residuals(ctx, binds[:, 0], binds[:, 1], jm, jn, binds[:, 4:])
    sv = np.linalg.svd(grads[:, :3], compute_uv=False)
    triple = sv[:, 2] / sv[:, 0]
    deficient = triple < 1e-6
    notes = [f"triple sigma3/sigma1={t:.2e}" + (" (rank deficient!)" if bad else "")
             for t, bad in zip(triple.tolist(), deficient.tolist())]
    return make_records("GRAD4", residual, tol["GRAD4"], notes=notes, precondition_failed=deficient,
                        masks=("I", "kappas", "pairs"), I=binds[:, 0], kappas=binds[:, 1],
                        pairs=binds[:, 4:], j_m=binds[:, 2], j_n=binds[:, 3])


def gradn_batch(ctx: CurveContext, binds: np.ndarray,
                tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """GRADN for every row [I B j_m j_n] of binds, I and B as masks: the
    conjectural (r+1)-term relation with |B| = 2r-1 and |I| = g-r.  K is the
    r smallest indices of B, and S runs over K - kappa for kappa in K, and
    B - K.  Report-only for r >= 4."""
    i_mask, b_mask = binds[:, 0], binds[:, 1]
    jm, jn = (1 << binds[:, 2:]).T
    r = (np.bitwise_count(b_mask) + 1) // 2
    residual = np.empty(len(binds))
    for size, rows in _groups(r):
        bits = 1 << index_rows(b_mask[rows])
        k_mask, rest = bits[:, :size].sum(axis=1), bits[:, size:].sum(axis=1)
        subsets = np.hstack([k_mask[:, None] ^ bits[:, :size], rest[:, None]])
        residual[rows] = _gradient_residuals(
            ctx, i_mask[rows], b_mask[rows], jm[rows], jn[rows], subsets
        )[0]
    notes = ["conjecture: residual reported" if size >= 4 else "" for size in r.tolist()]
    return make_records("GRADN", residual, tol["GRADN"], notes=notes, masks=("I", "B"), I=i_mask,
                        B=b_mask, r=r, j_m=binds[:, 2], j_n=binds[:, 3])


# ---------------------------------------------------------------------------
# Rank of gradient collections
# ---------------------------------------------------------------------------

def predicted_collection_rank(g: int, parts: np.ndarray) -> np.ndarray:
    """Combinatorial rank of every row of an int array of full-part masks,
    each holding g - 1 indices: the size of the largest subcollection whose
    every subfamily F of two or more parts has |F| <= g - |intersection of F|.
    A subfamily is one subset bit pattern S < 2^n of a row of n parts; its
    intersection is the AND of its masks (all bits set when S is empty) and
    its size a popcount.  A repeated part fails that test with its copy, so
    repeats count once."""
    n = parts.shape[-1]
    subs = np.arange(1 << n)
    member = (subs[:, None] >> np.arange(n) & 1).astype(bool)  # (2^n, n)
    size = member.sum(axis=1)
    inter = np.bitwise_and.reduce(np.where(member, parts[..., None, :], -1), axis=-1)
    bad = (size > 1) & (size > g - np.bitwise_count(inter))
    within = (subs[:, None] & subs) == subs[:, None]  # [F, S]: F is a subfamily of S
    return np.max(np.where(bad.astype(np.int64) @ within, 0, size), axis=-1)


def rank_batch(ctx: CurveContext, binds: np.ndarray,
               tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """RANK for every row [degenerate | part masks] of binds, the masks padded
    with -1: the finite parts of distinct multiplicity-1 partitions, whose
    gradients must have the rank that :func:`predicted_collection_rank`
    gives; a row flagged degenerate must have rank 3 as well."""
    g = ctx.g
    flag, masks = binds[:, 0], binds[:, 1:]
    held = masks >= 0
    parts = np.where(held, masks, 0)
    full, m = completed_part(g, parts)
    if np.any(held & (((parts & 1) == 1) | (m != 1))):
        raise ValueError("every set must be the finite part of a multiplicity-1 partition")
    size = held.sum(axis=1)
    observed, predicted = np.empty((2, len(binds)), dtype=np.int64)
    for n, rows in _groups(size):
        sv = np.linalg.svd(ctx.grads(parts[rows, :n]), compute_uv=False)
        observed[rows] = np.sum(sv > RANK_SVD_CUT * sv[:, :1], axis=1)
        predicted[rows] = predicted_collection_rank(g, full[rows, :n])
    notes = [f"degenerate family: observed {obs}, predicted {pred} (want 3)" if deg
             else f"observed {obs}, predicted {pred}"
             for deg, obs, pred in zip(flag.tolist(), observed.tolist(), predicted.tolist())]
    match = (observed == predicted) & ((flag == 0) | (observed == 3))
    # a set is the finite part of its partition: the part masks, padded with -1
    return make_records("RANK", np.where(match, 0.0, 1.0), tol["RANK"], notes=notes,
                        masks=("sets",), sets=masks,
                        family=["degenerate" if deg else None for deg in flag.tolist()])


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


@lru_cache(maxsize=None)
def _r_layout(kk: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """How R is assembled from a per-binding factor table.

    Factor columns: the C(kk, 2) pair values, then kk single products, kk
    swap values and the denominator base.  The entry with positions
    P = (k_1 < ... < k_m) is its sign times the product of its ``num``
    columns over the product of its ``den`` columns, as in the formula of
    :func:`general_r_tensor`.  ``fill`` maps each position of the (kk,)*m
    tensor to its entry, or to one past the last entry (zero) when an index
    repeats.
    """
    pair_list = list(combinations(range(kk), 2))
    col = {}
    for c, (a, b) in enumerate(pair_list):
        col[a, b] = col[b, a] = c
    single, swap, base = len(pair_list), len(pair_list) + kk, len(pair_list) + 2 * kk
    entries = list(combinations(range(kk), m))
    signs, num, den = [], [], []
    for ps in entries:
        qs = [t for t in range(kk) if t not in ps]
        up = [col[ab] for ab in combinations(ps, 2)] + [col[ab] for ab in combinations(qs, 2)]
        up += [swap + p for p in (ps if kk == 2 * m else qs)] + [single + q for q in qs]
        signs.append(_entry_sign(ps, kk))
        num.append(up)
        den.append([col[p, q] for p in ps for q in qs] + [base])
    index = {ps: e for e, ps in enumerate(entries)}
    fill = np.array([index.get(tuple(sorted(pos)), len(entries)) if len(set(pos)) == m
                     else len(entries) for pos in product(range(kk), repeat=m)])
    return np.array(signs), np.array(num), np.array(den), fill


def general_r_tensor(ctx: CurveContext, binds: np.ndarray) -> np.ndarray:
    """Symmetric coefficient tensor R of the order-m representation for every
    row [I0 K j_m j_n] of binds, one |K| for all rows and m = (|K|+1)//2:
    shape (B,) + (|K|,)*m.

    Entries with repeated indices vanish; for positions k_1 < ... < k_m of
    elements P of K (ascending), with Q = K - P,

        R = eps * prod_{pairs of P} th[I0^{(p,p' -> jn,jm)}]
                * prod_{pairs of Q} th[I0^{(q,q' -> jn,jm)}]
                * (|K| = 2m only) prod_{p} th[J0^{(jn,jm -> p)}]
                * prod_{q} th[I0^{(q -> jm)}] th[I0^{(q -> jn)}]
                          * (|K| = 2m-1 only) th[J0^{(jn,jm -> q)}]
                / ( (th[J0^{(jm)}] th[J0^{(jn)}])^{|K|-m}
                    * prod_{p, q} th[I0^{(p,q -> jn,jm)}] )

    Every theta constant is read once per binding, into a factor table
    indexed by position in K (:func:`_r_layout`).
    """
    i0 = binds[:, 0]
    kap = 1 << index_rows(binds[:, 1])
    kk = kap.shape[1]
    m = (kk + 1) // 2
    jm, jn = (1 << binds[:, 2:]).T
    j0 = finite_mask(ctx.g) ^ i0
    if np.any(((jm & j0) == 0) | ((jn & j0) == 0) | (jm == jn)):
        raise ValueError("j_m, j_n must be distinct members of J_0")
    a, b = np.array(list(combinations(range(kk), 2))).reshape(-1, 2).T
    pair = ctx.consts((i0 ^ jn ^ jm)[:, None] ^ kap[:, a] ^ kap[:, b])
    single = ctx.consts(np.stack([(i0 ^ jm)[:, None] ^ kap, (i0 ^ jn)[:, None] ^ kap], axis=2))
    swap = ctx.consts((j0 ^ jn ^ jm)[:, None] ^ kap)
    base = ctx.consts(np.stack([j0 ^ jm, j0 ^ jn], axis=1)).prod(axis=1)
    factors = np.hstack([pair, single.prod(axis=2), swap, (base ** (kk - m))[:, None]])
    signs, num, den, fill = _r_layout(kk, m)
    val = signs * factors[:, num].prod(axis=-1) / factors[:, den].prod(axis=-1)
    val = np.hstack([val, np.zeros((len(binds), 1))])
    return val[:, fill].reshape((len(binds),) + (kk,) * m)


def _predicted(ctx: CurveContext, binds: np.ndarray) -> np.ndarray:
    """Predicted order-m derivative tensor of theta[I0 - K] for every row
    [I0 K j_m j_n], one |K| for all rows: R applied to the gradients of
    theta[I0 - p], p in K, divided by theta[I0]^(m-1)."""
    i0 = binds[:, 0]
    pred = general_r_tensor(ctx, binds)
    order = pred.ndim - 1
    grads = ctx.grads(i0[:, None] ^ (1 << index_rows(binds[:, 1])))  # (B, |K|, g)
    for _ in range(order):  # contract the leading |K| axis, append a g axis
        pred = np.einsum("bi...,bin->b...n", pred, grads)
    theta0 = np.power(ctx.consts(i0), float(order - 1))
    return pred / theta0.reshape((-1,) + (1,) * order)


def _repr_residuals(ctx: CurveContext, binds: np.ndarray) -> np.ndarray:
    """The residuals of the order-m representation of theta[I0 - K]'s
    derivative tensor for every row [I0 K j_m j_n], m = (|K|+1)//2, over
    the rows of each |K| at once."""
    residual = np.empty(len(binds))
    for _, rows in _groups(np.bitwise_count(binds[:, 1])):
        pred = _predicted(ctx, binds[rows])
        target = ctx.derivs(binds[rows, 0] ^ binds[rows, 1], pred.ndim - 1)
        residual[rows] = _match_residuals(pred, target)
    return residual


# |K| -> record id of the order-(|K|+1)//2 representation
REPRESENTATION_RECORDS = {3: "HESS_K3", 4: "HESS_K4", 5: "D3_K5", 6: "D3_K6"}


def derivative_batch(ctx: CurveContext, binds: np.ndarray,
                     tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """The representation record of every row [I0 K j_m j_n] of binds, its
    id and its tolerance key from |K|."""
    kk = np.bitwise_count(binds[:, 1])
    bad = sorted(set(kk.tolist()) - set(REPRESENTATION_RECORDS))
    if bad:
        raise ValueError(f"|K| must be one of {sorted(REPRESENTATION_RECORDS)}, got {bad[0]}")
    kinds = [REPRESENTATION_RECORDS[size] for size in kk.tolist()]
    return make_records(kinds, _repr_residuals(ctx, binds), [tol[kind] for kind in kinds],
                        masks=("I0", "K"), I0=binds[:, 0], K=binds[:, 1],
                        j_m=binds[:, 2], j_n=binds[:, 3])


def hessian_equiv_batch(ctx: CurveContext, binds: np.ndarray,
                        tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """HESS_EQUIV for every row [I0_a K_a j_m j_n  I0_b K_b j_m j_n] of binds:
    two representations of the same Hessian agree entrywise."""
    if np.any(binds[:, 0] ^ binds[:, 1] != binds[:, 4] ^ binds[:, 5]):
        raise ValueError("bindings must represent the same characteristic")
    residual = np.empty(len(binds))
    for _, rows in _groups(np.bitwise_count(binds[:, 1])):
        va, vb = (_predicted(ctx, binds[rows, c : c + 4]) for c in (0, 4))
        residual[rows] = _match_residuals(va, vb)
    return make_records("HESS_EQUIV", residual, tol["HESS_EQUIV"],
                        masks=("I0_a", "K_a", "I0_b", "K_b"), I0_a=binds[:, 0], K_a=binds[:, 1],
                        I0_b=binds[:, 4], K_b=binds[:, 5], j_a=binds[:, 2:4], j_b=binds[:, 6:8])


def hessian_rank_batch(ctx: CurveContext, binds: np.ndarray,
                       tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """HESS_RANK for every row [I2] of binds, I2 as a mask: the finite part of
    a multiplicity-2 partition, whose Hessian has rank exactly 3 for g > 3
    (sigma_4/sigma_1 < tol, sigma_3/sigma_1 > 1e-6) and full rank at g = 3."""
    g, masks = ctx.g, binds[:, 0]
    if np.any(completed_part(g, masks)[1] != 2):
        raise ValueError("every set must be the finite part of a multiplicity-2 partition")
    sv = np.linalg.svd(ctx.derivs(masks, 2), compute_uv=False)
    keep3 = sv[:, 2] / sv[:, 0]
    if g == 3:
        drop4 = np.zeros(len(masks))
        notes = [f"sigma3/sigma1={k:.2e} (full rank expected)" for k in keep3.tolist()]
    else:
        drop4 = sv[:, 3] / sv[:, 0]
        notes = [f"sigma4/sigma1={d:.2e}, sigma3/sigma1={k:.2e}"
                 for d, k in zip(drop4.tolist(), keep3.tolist())]
    # sigma4 <= sigma3, so a failed rank-3 check reads exactly 1.0
    return make_records("HESS_RANK", drop4, tol["HESS_RANK"], notes=notes,
                        precondition_failed=~(keep3 > 1e-6), masks=("I2",), I2=masks)


def conjecture_batch(ctx: CurveContext, binds: np.ndarray,
                     tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """CONJ_M for every row [I0 K j_m j_n] of binds: the representation at
    order m = (|K|+1)//2, with R's own sign; for m >= 4 the residual is
    reported only.  R's signs come from :func:`_entry_sign`, so R with the
    wrong sign fails here as in HESS_K3..D3_K6.  Measured on
    ``random_curve(g, s)``, g = 3..7 at s = 1-3 and g = 8 at s = 2: R fits
    better than -R in all 42 records, |K| = 3, 4, 5 and 7."""
    order = (np.bitwise_count(binds[:, 1]) + 1) // 2
    if ctx.g < 7 and np.any(order >= 4):
        raise ValueError("multiplicity >= 4 requires genus >= 7")
    notes = ["conjecture: residual reported" if m >= 4 else "" for m in order.tolist()]
    return make_records("CONJ_M", _repr_residuals(ctx, binds), tol["CONJ_M"], notes=notes,
                        masks=("I0", "K"), I0=binds[:, 0], K=binds[:, 1], m=order,
                        j_m=binds[:, 2], j_n=binds[:, 3])


# ---------------------------------------------------------------------------
# Riemann-Jacobi derivative formula
# ---------------------------------------------------------------------------

def rj_det_batch(ctx: CurveContext, binds: np.ndarray,
                 tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """RJ_DET for the first column I0 of every row of binds (g finite indices):

        det(grad theta[I0^{(i)}], i in I0) = (-pi)^g theta[I0] prod_{j in J0} theta[J0^{(j)}]

    (g+2 even constants; the genus-1 case is Jacobi's derivative formula
    with its three theta constants), columns in ascending i.  The sign
    (-1)^g is measured, not derived: on ``random_curve(g, s)``, g = 2..7 at
    s = 1-3 and g = 8 at s = 2, the signed ratio of the sides is (-1)^g in
    all 340 records.  Only at g <= 3 is it an identity on every tau = i Y:
    from g = 4 on it holds on the curve alone, and misses by 0.07 to 2 on
    Y = a a^t / g + 0.5 I (``test_riemann_jacobi_off_the_curve``)."""
    g = ctx.g
    i0 = binds[:, 0]
    j0 = finite_mask(g) ^ i0
    # column i of each matrix is the gradient of theta[I0^{(i)}]
    lhs = np.linalg.det(np.swapaxes(ctx.grads(i0[:, None] ^ (1 << index_rows(i0))), 1, 2))
    # the factors theta[J0^{(j)}], j in J0 ascending, multiplied in that order
    factors = ctx.consts(j0[:, None] ^ (1 << index_rows(j0)))
    rhs = reduce(np.multiply, factors.T, (-np.pi) ** g * ctx.consts(i0))
    return make_records("RJ_DET", _match_residuals(lhs, rhs), tol["RJ_DET"], masks=("I0",), I0=i0)
