"""Schottky-type relations: Goepel groups, coset theta products, and the
vanishing combinations of their square roots.

A Goepel group (P) is a subgroup of characteristics under addition mod 2,
realised here on branch-index sets: the characteristic of A(S) is
sum_{i in S} [eps_i], and set symmetric difference implements the sum (an
index occurring twice drops).  Three further characteristics A_1, A_2, A_3
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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .characteristics import HalfCharacteristic, char_of_set, char_sum, parity, riemann_char, zero_char
from .context import CurveContext
from .indexsets import IndexSet, complement_finite, iset, replace
from .relations import VerificationRecord, general_r_tensor, scalar_identity_residual
from .thomae import first_thomae_rhs


def syzygy_test(a: HalfCharacteristic, b: HalfCharacteristic, c: HalfCharacteristic) -> str:
    """'azygetic' iff parity(a)+parity(b)+parity(c)+parity(a+b+c) is odd."""
    chars = (a, b, c, char_sum(char_sum(a, b), c))
    total = sum(parity(x) == "odd" for x in chars)
    return "azygetic" if total % 2 else "syzygetic"


def raw_char(g: int, s: frozenset) -> HalfCharacteristic:
    """[A(S)] = sum_{i in S} [eps_i]: the period characteristic of the set,
    without the Riemann-constant shift that partition characteristics carry."""
    return char_sum(char_of_set(g, s), riemann_char(g))


@dataclass
class GoepelGroup:
    """Group of characteristics under XOR, elements held as index sets."""

    genus: int
    generators: tuple[frozenset, ...]
    elements: tuple[frozenset, ...]
    rank: int

    def is_syzygetic(self) -> bool:
        zero = zero_char(self.genus)
        chars = [raw_char(self.genus, s) for s in self.elements]
        # pair (a, b) syzygetic <=> triple (a, b, 0) syzygetic
        return all(
            syzygy_test(a, b, zero) == "syzygetic" for a, b in combinations(chars, 2)
        )


def build_goepel(g: int, generators: list[IndexSet]) -> GoepelGroup:
    """Group generated by the characteristics of the given index sets.

    Raises on generators that are dependent as characteristics (the full
    finite index set maps to the zero characteristic, so set-level and
    characteristic-level independence differ).
    """
    gens = [frozenset(iset(s)) - {0} for s in generators]
    basis_bits: list[int] = []
    for s in gens:
        v = raw_char(g, s).bits
        for b in basis_bits:
            v = min(v, v ^ b)
        if v == 0:
            raise ValueError(f"dependent generator {sorted(s)}")
        basis_bits.append(v)
        basis_bits.sort(reverse=True)
    elements = [frozenset()]
    for s in gens:
        elements += [e ^ s for e in elements]
    return GoepelGroup(genus=g, generators=tuple(gens), elements=tuple(elements), rank=len(gens))


@dataclass
class SchottkyTriple:
    a_sets: tuple[IndexSet, ...]
    r: tuple[complex, ...]
    roots: tuple[complex, ...]
    coset_sets: tuple[tuple[IndexSet, ...], ...]


def coset_product(ctx: CurveContext, group: GoepelGroup, a_set: IndexSet) -> tuple[complex, tuple[IndexSet, ...]]:
    """prod theta[A] over the coset of the partition a_set; every member
    must be even non-singular."""
    base = frozenset(iset(a_set)) - {0}
    members = []
    prod = 1.0 + 0j
    for el in group.elements:
        s = base ^ el
        p = ctx.partition(s)
        if p.multiplicity() != 0:
            raise ValueError(
                f"coset member {str(p)} (char {p.char()}) has multiplicity "
                f"{p.multiplicity()}; all members must be even non-singular"
            )
        members.append(p.part)
        prod *= ctx.const(p.part)
    return prod, tuple(members)


def schottky_triple(
    ctx: CurveContext, group: GoepelGroup, a_sets: list[IndexSet]
) -> SchottkyTriple:
    """Coset products normalised to degree 8, and their square roots."""
    exponent = 8.0 / 2.0**group.rank
    rs, roots, cosets = [], [], []
    for a in a_sets:
        prod, members = coset_product(ctx, group, a)
        r = complex(prod) ** exponent
        rs.append(r)
        roots.append(complex(prod) ** (exponent / 2.0))
        cosets.append(members)
    return SchottkyTriple(
        a_sets=tuple(iset(a) for a in a_sets),
        r=tuple(rs),
        roots=tuple(roots),
        coset_sets=tuple(cosets),
    )


def schottky_J(triple: SchottkyTriple) -> tuple[complex, float]:
    """Schottky invariant and its residual relative to max |r_i|^2."""
    r1, r2, r3 = triple.r[:3]
    j = r1**2 + r2**2 + r3**2 - 2 * r1 * r2 - 2 * r1 * r3 - 2 * r2 * r3
    scale = max(abs(r) for r in triple.r[:3]) ** 2
    return j, abs(j) / scale


def true_schottky_group(
    ctx: CurveContext, i0: IndexSet, ps: tuple[int, int, int, int], j_m: int, j_n: int,
) -> tuple[GoepelGroup, list[IndexSet]]:
    """Rank-3 group and azygetic triplet realising the classical Schottky
    invariant from a 4-subset of I_0: (P) is generated by the characteristic
    of K = {p_1..p_4} together with [A({q_1, j_m})] and [A({q_2, j_n})],
    q_1 < q_2 the two smallest indices of J_0 besides j_m and j_n, and
    A_i = [I_0^{(p_1, p_{i+1} -> j_m, j_n)}].  sqrt(r_1) - sqrt(r_2)
    + sqrt(r_3) = 0 for ascending p's, hence J = 0."""
    i0, ps = iset(i0), tuple(sorted(ps))
    j0 = complement_finite(ctx.spec.n_finite, i0)
    q1, q2 = [j for j in j0 if j not in (j_m, j_n)][:2]
    group = build_goepel(ctx.g, [ps, (q1, j_m), (q2, j_n)])
    a_sets = [replace(i0, (ps[0], ps[i]), (j_m, j_n)) for i in (1, 2, 3)]
    return group, a_sets


def root_sum_residual(
    roots: tuple[complex, ...], printed_signs: str
) -> tuple[float, str, float]:
    """Residual of sum(sign_i * sqrt(r_i)) with the printed signs, plus the
    minimal-magnitude sign choice over the free signs (first is +).

    Square roots are taken with the principal branch, so each sqrt(r_i) is
    determined only up to sign; the relation fixes the relative signs.
    Returns (printed_residual, best_signs, best_residual).
    """
    n = len(roots)
    assert len(printed_signs) == n and printed_signs[0] == "+"
    scale = max(abs(r) for r in roots)

    def combo(signs):
        return abs(sum((1 if s == "+" else -1) * r for s, r in zip(signs, roots))) / scale

    best_signs, best = "+" * n, float("inf")
    for mask in range(2 ** (n - 1)):
        signs = "+" + "".join("+" if (mask >> i) & 1 == 0 else "-" for i in range(n - 1))
        v = combo(signs)
        if v < best:
            best, best_signs = v, signs
    return combo(printed_signs), best_signs, best


def verify_schottky_R(
    ctx: CurveContext,
    i0: IndexSet,
    ps: tuple[int, int, int, int],
    j_m: int,
    j_n: int,
    tolerance: float = 1e-8,
    det_tolerance: float = 1e-10,
) -> list[VerificationRecord]:
    """The three routes to the rank-1 Schottky relation.

    (i) the invariant J = 0 of the rank-3 Goepel group and azygetic triplet
    that :func:`true_schottky_group` builds from I_0 and p_1..p_4; (ii)
    det R = 0 for the 4x4 quadratic-representation matrix, with all 3x3
    minors nonzero; (iii) a1 - a2 + a3 = 0 exactly in rational arithmetic.
    """
    i0 = iset(i0)
    ps = tuple(sorted(ps))
    if not set(ps) <= set(i0):
        raise ValueError("p1..p4 must lie in I_0")
    j0 = complement_finite(ctx.spec.n_finite, i0)
    if j_m not in j0 or j_n not in j0 or j_m == j_n:
        raise ValueError("j_m, j_n must be distinct members of J_0")
    out = []

    group, a_sets = true_schottky_group(ctx, i0, ps, j_m, j_n)
    out.append(
        VerificationRecord(
            "SCHOTTKY_R",
            {"I0": i0, "p": ps, "j_m": j_m, "j_n": j_n},
            schottky_J(schottky_triple(ctx, group, a_sets))[1],
            tolerance,
        )
    )

    r_hat = general_r_tensor(ctx, np.array([i0 + ps + (j_m, j_n)]), order=2)[0]
    sv = np.linalg.svd(r_hat, compute_uv=False)
    det_resid = abs(np.linalg.det(r_hat)) / (sv[0] ** 4)
    minors = [
        abs(np.linalg.det(r_hat[np.ix_(rows, cols)])) / sv[0] ** 3
        for rows in combinations(range(4), 3)
        for cols in combinations(range(4), 3)
    ]
    notes = f"sigma3/sigma1={sv[2]/sv[0]:.2e}, smallest 3x3 minor {min(minors):.2e}"
    if sv[2] / sv[0] < 1e-6 or min(minors) < 1e-6:
        notes += " (3x3 minors unexpectedly small)"
        det_resid = max(det_resid, 1.0)
    out.append(
        VerificationRecord(
            "SCHOTTKY_DETR",
            {"I0": i0, "K": ps, "j_m": j_m, "j_n": j_n},
            det_resid,
            det_tolerance,
            notes=notes,
        )
    )

    e = [Fraction(ctx.spec.branch_points[p - 1]) for p in ps]
    a1 = (e[1] - e[0]) * (e[3] - e[2])
    a2 = (e[2] - e[0]) * (e[3] - e[1])
    a3 = (e[3] - e[0]) * (e[2] - e[1])
    exact = a1 - a2 + a3
    out.append(
        VerificationRecord(
            "SCHOTTKY_A123",
            {"p": ps},
            float(abs(exact)),
            0.5,  # exact-zero contract: anything nonzero is a failure
            notes="exact rational arithmetic; residual must be exactly 0",
        )
    )
    return out


# --- Appendix F case definitions -------------------------------------------

_F_CASES: dict[str, dict] = {
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

# Genus-3 relation printed without square roots: the three 4-term products.
_F69G3_PRODUCTS = [
    ((2, 4, 6), (3, 5, 7), (2, 5, 7), (3, 4, 6)),
    ((2, 4, 7), (3, 5, 6), (2, 5, 6), (3, 4, 7)),
    ((2, 4, 5), (3, 6, 7), (2, 6, 7), (3, 4, 5)),
]

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

CASE_IDS = tuple(sorted(_F_CASES)) + ("schottky.F69G3", "schottky.Ratio45")


def verify_appendix_f(ctx: CurveContext, case_id: str, tolerance: float = 1e-7) -> VerificationRecord:
    """One Appendix-F Schottky case with the printed sign pattern."""
    if case_id == "schottky.F69G3":
        if ctx.g != 3:
            raise ValueError("F69G3 needs genus 3")
        qs = [np.prod([ctx.const(s) for s in group]) for group in _F69G3_PRODUCTS]
        resid = scalar_identity_residual([qs[0], -qs[1], -qs[2]])
        return VerificationRecord(
            "SCHOTTKY_F", {"case": case_id}, resid, tolerance, notes="signs +--"
        )
    if case_id == "schottky.Ratio45":
        if ctx.g != 5:
            raise ValueError("Ratio45 needs genus 5")
        worst = 0.0
        for pair in _RATIO45_PRODUCTS:
            prod = np.prod([ctx.const(s) for s in pair])
            ref = np.prod([first_thomae_rhs(ctx, s) for s in pair])
            worst = max(worst, abs(abs(prod) - abs(ref)) / abs(ref))
        return VerificationRecord(
            "SCHOTTKY_F",
            {"case": case_id},
            worst,
            tolerance,
            notes="intra-genus Thomae consistency of the listed products",
        )
    if case_id not in _F_CASES:
        raise ValueError(f"unknown Schottky case {case_id!r}; known: {CASE_IDS}")
    cfg = _F_CASES[case_id]
    if ctx.g != cfg["genus"]:
        raise ValueError(f"{case_id} needs genus {cfg['genus']}")
    group = build_goepel(ctx.g, [iset(s) for s in cfg["group"]])
    triple = schottky_triple(ctx, group, [iset(a) for a in cfg["a_sets"]])
    printed, best_signs, best = root_sum_residual(triple.roots, cfg["signs"])
    _, j_resid = schottky_J(triple) if len(triple.r) == 3 else (0, 0.0)
    notes = f"printed signs {cfg['signs']}, best {best_signs} ({best:.2e}); J residual {j_resid:.2e}"
    residual = printed if best_signs == cfg["signs"] else max(printed, 1.0)
    return VerificationRecord("SCHOTTKY_F", {"case": case_id}, residual, tolerance, notes=notes)
