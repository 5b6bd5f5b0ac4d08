"""Schottky-type relations: Goepel groups, coset theta products, and the
vanishing combinations of their square roots.

A Goepel group (P) is a subgroup of characteristics under addition mod 2,
realised here on branch-index masks: the characteristic of A(S) is
sum_{i in S} [eps_i], and XOR of masks implements the sum (an index
occurring twice drops).  Three further characteristics A_1, A_2, A_3
generate cosets (A_i P) whose members must all be even non-singular; the
coset products

    r_i = prod_{A in (A_i P)} theta[A]

satisfy sqrt(r_1) +- sqrt(r_2) +- sqrt(r_3) = 0 with a definite sign
pattern, and the Schottky invariant J = r1^2 + r2^2 + r3^2 - 2 r1 r2
- 2 r1 r3 - 2 r2 r3 vanishes.  Products are normalised to degree 8: a coset
of size 2^rank enters with exponent 8 / 2^rank.

The determinant route: the 4x4 coefficient matrix R of the quadratic
representation with four dropped indices has det R = 0, which in branch
points reduces to the exact identity a1 - a2 + a3 = 0 with

    a1 = (e_{p2}-e_{p1})(e_{p4}-e_{p3}),
    a2 = (e_{p3}-e_{p1})(e_{p4}-e_{p2}),
    a3 = (e_{p4}-e_{p1})(e_{p3}-e_{p2});

this identity is checked in exact rational arithmetic.

Both families take an int array with one binding per row, and both read
their coset products from :func:`coset_products`: the group elements of
every row are XOR combinations of its generator masks, and one
:meth:`CurveContext.consts` gather reads every coset member.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping

import numpy as np

from .characteristics import _char, _partition, completed_part, mask_chars
from .context import CurveContext
from .indexsets import finite_mask, index_mask, index_masks, index_rows, index_set, low_indices
from .relations import DEFAULT_TOLERANCES, RecordTable, general_r_tensor, make_records
from .thomae import thomae_prefactor


def raw_chars(g: int, masks: np.ndarray) -> np.ndarray:
    """Bits of [A(S)] = sum_{i in S} [eps_i] for an int array of index masks
    S: the period characteristic of the set, without the Riemann-constant
    shift [K] that partition characteristics carry."""
    table = mask_chars(g)
    return table[masks] ^ table[0]


def goepel_elements(g: int, gens: np.ndarray) -> np.ndarray:
    """Elements of the Goepel group generated by the characteristics of the
    index masks ``gens`` (..., R), the infinity index dropped: (..., 2^R)
    masks, element e the XOR of the generators at the set bits of e.

    Raises on generators that are dependent as characteristics (the full
    finite index set maps to the zero characteristic, so set-level and
    characteristic-level independence differ).
    """
    gens = np.asarray(gens) & ~1
    r = gens.shape[-1]
    picks = np.arange(1 << r)[:, None] >> np.arange(r) & 1
    elements = np.bitwise_xor.reduce(np.where(picks == 1, gens[..., None, :], 0), axis=-1)
    zero = raw_chars(g, elements[..., 1:]) == 0
    if np.any(zero):
        # the highest generator of the first element with zero characteristic
        # is the first generator that depends on the ones before it
        row, e = np.argwhere(zero.reshape(-1, (1 << r) - 1))[0].tolist()
        gen = gens.reshape(-1, r)[row, (e + 1).bit_length() - 1]
        raise ValueError(f"dependent generator {list(index_set(int(gen)))}")
    return elements


def coset_products(ctx: CurveContext, gens: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """prod theta[A] over the coset (A_i P) for every row: ``gens`` (B, R)
    generator masks of (P), ``reps`` (B, T) masks of the A_i; (B, T).  Every
    coset member must be even non-singular, i.e. hold g or g + 1 finite
    indices."""
    members = (reps & ~1)[:, :, None] ^ goepel_elements(ctx.g, gens)[:, None, :]
    bad = completed_part(ctx.g, members)[1] != 0
    if np.any(bad):
        first = int(members[bad][0])
        part = _partition(ctx.g, first)
        char = _char(ctx.g, int(mask_chars(ctx.g)[first]))
        raise ValueError(
            f"coset member {part} (char {char}) has multiplicity "
            f"{part.multiplicity()}; all members must be even non-singular"
        )
    return ctx.consts(members).prod(axis=-1)


def schottky_J(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schottky invariant of the last axis (r1, r2, r3) and its residual
    relative to max |r_i|^2."""
    r1, r2, r3 = np.moveaxis(r, -1, 0)
    j = r1**2 + r2**2 + r3**2 - 2 * r1 * r2 - 2 * r1 * r3 - 2 * r2 * r3
    return j, np.abs(j) / np.max(np.abs(r), axis=-1) ** 2


def schottky_r_cosets(ctx: CurveContext, binds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generators and coset representatives, as masks ((B, 3) each), of the
    rank-3 Goepel group and azygetic triplet that realise the classical
    Schottky invariant for every row [I0 K j_m j_n], K = {p_1 < .. < p_4}:
    (P) is generated by the characteristic of K together with
    [A({q_1, j_m})] and [A({q_2, j_n})], q_1 < q_2 the two smallest indices
    of J_0 besides j_m and j_n, and A_i = [I_0^{(p_1, p_{i+1} -> j_m, j_n)}].
    sqrt(r_1) - sqrt(r_2) + sqrt(r_3) = 0, hence J = 0."""
    i0, k_mask, ps = binds[:, 0], binds[:, 1], 1 << index_rows(binds[:, 1])
    jm, jn = (1 << binds[:, 2:]).T
    q1, q2 = (1 << low_indices(finite_mask(ctx.g) ^ i0 ^ jm ^ jn, 2)).T
    gens = np.stack([k_mask, q1 | jm, q2 | jn], axis=1)
    return gens, (i0 ^ ps[:, 0] ^ jm ^ jn)[:, None] ^ ps[:, 1:]


def root_sum_residual(roots: np.ndarray, printed_signs: str) -> tuple[float, str, float]:
    """Residual of sum(sign_i * sqrt(r_i)) with the printed signs, plus the
    minimal-magnitude sign choice over the free signs (first is +).

    Square roots are taken with the principal branch, so each sqrt(r_i) is
    determined only up to sign; the relation fixes the relative signs.
    Returns (printed_residual, best_signs, best_residual).
    """
    n = len(roots)
    assert len(printed_signs) == n and printed_signs[0] == "+"
    patterns = ["+" + "".join("+-"[mask >> i & 1] for i in range(n - 1))
                for mask in range(2 ** (n - 1))]
    signs = np.array([[1.0 if c == "+" else -1.0 for c in p] for p in patterns + [printed_signs]])
    combos = (np.abs(signs @ np.asarray(roots)) / np.max(np.abs(roots))).tolist()
    best = int(np.argmin(combos[:-1]))
    return combos[-1], patterns[best], combos[best]


def schottky_r_batch(ctx: CurveContext, binds: np.ndarray,
                     tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """The three routes to the rank-1 Schottky relation, three records for
    every row [I0 K j_m j_n] of binds, K = {p_1 < .. < p_4} in I0:

    (i) the invariant J = 0 of the Goepel group and azygetic triplet of
    :func:`schottky_r_cosets`; (ii) det R = 0 for the 4x4
    quadratic-representation matrix, with all 3x3 minors nonzero; (iii)
    a1 - a2 + a3 = 0 exactly in rational arithmetic.  The first two read
    their tolerances under their own ids; the exact third fails on any nonzero.
    One table holds them, the three records of a row in turn.
    """
    if np.any((np.bitwise_count(binds[:, 1]) != 4) | (binds[:, 1] & ~binds[:, 0] != 0)):
        raise ValueError("K must be four members of I_0")
    r_hat = general_r_tensor(ctx, binds)  # checks j_m, j_n
    # rank 3: each coset has eight members and enters with exponent 1
    j_resid = schottky_J(coset_products(ctx, *schottky_r_cosets(ctx, binds)))[1]
    sv = np.linalg.svd(r_hat, compute_uv=False)
    det_resid = np.abs(np.linalg.det(r_hat)) / sv[:, 0] ** 4
    three = np.array(list(combinations(range(4), 3)))
    minors = np.abs(np.linalg.det(r_hat[:, three[:, None, :, None], three[None, :, None, :]]))
    smallest = minors.min(axis=(1, 2), initial=np.inf) / sv[:, 0] ** 3
    s3 = sv[:, 2] / sv[:, 0]
    small = (s3 < 1e-6) | (smallest < 1e-6)
    notes = [f"sigma3/sigma1={s:.2e}, smallest 3x3 minor {low:.2e}"
             + (" (3x3 minors unexpectedly small)" if bad else "")
             for s, low, bad in zip(s3.tolist(), smallest.tolist(), small.tolist())]
    e = [Fraction(x) for x in ctx.spec.branch_points]
    exact = []
    for e1, e2, e3, e4 in ([e[i - 1] for i in row] for row in index_rows(binds[:, 1]).tolist()):
        a123 = (e2 - e1) * (e4 - e3) - (e3 - e1) * (e4 - e2) + (e4 - e1) * (e3 - e2)
        exact.append(float(abs(a123)))
    # the three records of a row in turn; -1 where a record does not bind a slot
    n = len(binds)
    no, clear = np.full(n, -1), np.zeros(n, dtype=bool)

    def turns(*columns):
        return np.stack(columns, axis=1).ravel()

    i0, p, jm, jn = binds.T
    # exact-zero contract: anything nonzero is a failure
    exact_note = "exact rational arithmetic; residual must be exactly 0"
    return make_records(["SCHOTTKY_R", "SCHOTTKY_DETR", "SCHOTTKY_A123"] * n,
                        turns(j_resid, det_resid, exact),
                        [tol["SCHOTTKY_R"], tol["SCHOTTKY_DETR"], 0.5] * n,
                        notes=[note for detr in notes for note in ("", detr, exact_note)],
                        precondition_failed=turns(clear, small, clear), masks=("I0", "p", "K"),
                        I0=turns(i0, i0, no), p=turns(p, no, p), K=turns(no, p, no),
                        j_m=turns(jm, jm, no), j_n=turns(jn, jn, no))


# --- Appendix F case definitions -------------------------------------------

_F_CASES: dict[str, dict] = {
    # genus 3, rank 2: the cosets are the printed 4-term products
    "schottky.F69G3": {
        "genus": 3,
        "group": [(2, 3), (4, 5, 6, 7)],
        "a_sets": [(2, 4, 6), (2, 4, 7), (2, 4, 5)],
        "signs": "+--",
    },
    "schottky.F69": {
        "genus": 4,
        "group": [(1, 2), (1, 2, 3), (1, 2, 3, 4, 5)],
        "a_sets": [(2, 4, 6, 8), (2, 4, 6, 9), (2, 4, 6, 7)],
        "signs": "+--",
    },
    "schottky.F70": {
        "genus": 5,
        "group": [(1, 2), (1, 2, 3), (1, 2, 3, 4, 5)],
        "a_sets": [(2, 4, 6, 8, 10), (2, 4, 6, 8, 11), (2, 4, 6, 8, 9), (2, 4, 6, 7, 8)],
        "signs": "+---",
    },
    "schottky.G5r1": {
        "genus": 5,
        "group": [(6, 9, 10, 11)],
        "a_sets": [(2, 4, 6, 8, 10), (2, 4, 6, 8, 11), (2, 4, 6, 8, 9)],
        "signs": "+--",
    },
    "schottky.G5r3": {
        "genus": 5,
        "group": [(6, 9, 10, 11), (1, 2), (4, 5)],
        "a_sets": [(2, 4, 6, 8, 10), (2, 4, 6, 8, 11), (2, 4, 6, 8, 9)],
        "signs": "+--",
    },
    "schottky.G5mixed": {
        "genus": 5,
        "group": [(1, 3), (4, 5), (6, 9, 10, 11)],
        "a_sets": [(3, 5, 6, 8, 10), (3, 5, 6, 8, 11), (3, 5, 6, 8, 9)],
        "signs": "+--",
    },
    "schottky.G5rank4": {
        "genus": 5,
        "group": [(1, 2), (3, 4), (6, 7), (8, 9, 10, 11)],
        "a_sets": [(2, 4, 6, 8, 10), (2, 4, 6, 8, 11), (2, 4, 6, 8, 9)],
        "signs": "+--",
    },
}

# Equal-ratio chain, genus 4 to 5: the genus-5 theta products under the
# listed ratios; verified against their own Thomae values (single curve).
_RATIO45_PRODUCTS = [
    ((2, 4, 6, 8, 10), (1, 4, 6, 8, 10)),
    ((2, 3, 6, 8, 10), (1, 3, 6, 8, 10)),
    ((2, 4, 7, 9, 11), (1, 4, 7, 9, 11)),
    ((2, 3, 7, 9, 11), (1, 3, 7, 9, 11)),
    ((2, 4, 6, 9, 11), (1, 4, 6, 9, 11)),
    ((2, 3, 6, 9, 11), (1, 3, 6, 9, 11)),
]

CASE_IDS = tuple(sorted(_F_CASES)) + ("schottky.Ratio45",)
CASE_GENUS = {**{c: case["genus"] for c, case in _F_CASES.items()}, "schottky.Ratio45": 5}


def appendix_f_batch(ctx: CurveContext, binds: np.ndarray,
                     tol: Mapping = DEFAULT_TOLERANCES) -> RecordTable:
    """The Appendix-F Schottky case at every row [position in CASE_IDS] of
    binds, each with its printed sign pattern."""
    cases, residual, notes, signs_differ = [], [], [], []
    for (pos,) in binds.tolist():
        if not 0 <= pos < len(CASE_IDS):
            raise ValueError(f"unknown Schottky case position {pos}; known: {CASE_IDS}")
        case_id = CASE_IDS[pos]
        if ctx.g != CASE_GENUS[case_id]:
            raise ValueError(f"{case_id} needs genus {CASE_GENUS[case_id]}")
        cases.append(case_id)
        if case_id == "schottky.Ratio45":
            masks = index_masks(np.array(_RATIO45_PRODUCTS))
            full, mult = completed_part(ctx.g, masks)
            # first Thomae sets: multiplicity 0 with g finite indices, so that
            # completion adds index 0 alone (masks + 1 sets bit 0 only where clear)
            bad = masks[(mult != 0) | (full != masks + 1)]
            if len(bad):
                raise ValueError(f"{index_set(int(bad[0]))} is not a multiplicity-0 index set "
                                 "of g finite indices")
            prods = ctx.consts(masks).prod(axis=1)
            refs = thomae_prefactor(ctx, masks.ravel()).reshape(masks.shape).prod(axis=1)
            residual.append(np.max(np.abs(np.abs(prods) - np.abs(refs)) / np.abs(refs)))
            notes.append("intra-genus Thomae consistency of the listed products")
            signs_differ.append(False)
            continue
        case = _F_CASES[case_id]
        gens = np.array([[index_mask(s) for s in case["group"]]])
        prods = coset_products(ctx, gens, index_masks(np.array(case["a_sets"]))[None])[0]
        # degree-8 normalisation: a coset of 2^rank members enters with 8 / 2^rank
        exponent = 8.0 / 2.0 ** len(case["group"])
        printed, best_signs, best = root_sum_residual(prods ** (exponent / 2), case["signs"])
        j_resid = schottky_J(prods ** exponent)[1] if len(prods) == 3 else 0.0
        residual.append(printed)
        notes.append(f"printed signs {case['signs']}, best {best_signs} ({best:.2e}); "
                     f"J residual {j_resid:.2e}")
        signs_differ.append(best_signs != case["signs"])
    return make_records("SCHOTTKY_F", residual, tol["SCHOTTKY_F"], notes=notes,
                        precondition_failed=signs_differ, case=cases)
