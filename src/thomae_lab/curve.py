"""Curve data and elementary branch-point algebra.

A curve is given by 2g+1 strictly increasing real branch points
e_1 < e_2 < ... < e_{2g+1}; one more branch point sits at infinity and is
referred to by the index 0 throughout the package.  The quantities computed
here (ordered Vandermonde products and elementary symmetric polynomials of
subsets of branch points) are the algebraic ingredients of every closed-form
theta-constant expression in the verification suites.

All differences are taken with the larger index first ("right ordering"),
which makes every product positive for sorted real branch points and removes
quartic-root branch ambiguity downstream.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


@dataclass(frozen=True)
class CurveSpec:
    """A hyperelliptic curve y^2 = prod_{j=1}^{2g+1} (x - e_j), real e_j."""

    genus: int
    branch_points: tuple[float, ...]
    label: str = ""

    @property
    def n_finite(self) -> int:
        return 2 * self.genus + 1

    def point(self, k: int) -> float:
        """Branch point e_k, k = 1..2g+1 (index 0 = infinity is not a value)."""
        if not 1 <= k <= self.n_finite:
            raise ValueError(f"branch point index {k} out of range 1..{self.n_finite}")
        return self.branch_points[k - 1]

    def content_hash(self) -> str:
        payload = json.dumps({"g": self.genus, "e": [repr(e) for e in self.branch_points]})
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def validate_curve(genus: int, branch_points: Sequence[float], label: str = "") -> CurveSpec:
    """Build a CurveSpec, sorting the points and enforcing the invariants."""
    if genus < 2 and genus != 1:
        # genus 1 is admitted for oracle tests; the suites require g >= 2
        raise ValueError(f"genus must be a positive integer >= 2 (got {genus})")
    pts = [float(e) for e in branch_points]
    if len(pts) != 2 * genus + 1:
        raise ValueError(
            f"expected {2 * genus + 1} branch points for genus {genus}, got {len(pts)}"
        )
    if not all(math.isfinite(e) for e in pts):
        raise ValueError("non-finite branch point")
    pts.sort()
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise ValueError(f"duplicate branch point {a}")
    return CurveSpec(genus=genus, branch_points=tuple(pts), label=label)


def load_curve_file(path: str) -> CurveSpec:
    """Read a curve spec from a JSON file {"label", "genus", "branch_points"}."""
    with open(path) as fh:
        raw = json.load(fh)
    return validate_curve(raw["genus"], raw["branch_points"], raw.get("label", ""))


def save_curve_file(spec: CurveSpec, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(
            {"label": spec.label, "genus": spec.genus, "branch_points": list(spec.branch_points)},
            fh,
            indent=2,
        )


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


def vandermonde_exact(spec: CurveSpec, index_set: Iterable[int]) -> Fraction:
    """Exact-rational variant of :func:`vandermonde` (floats are binary rationals)."""
    idx = _check_finite_indexset(spec, index_set)
    e = [Fraction(x) for x in spec.branch_points]
    out = Fraction(1)
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
