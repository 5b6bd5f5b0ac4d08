"""Curve data: a genus and its sorted real branch points.

A curve is given by 2g+1 strictly increasing real branch points
e_1 < e_2 < ... < e_{2g+1}; one more branch point sits at infinity and is
referred to by the index 0 throughout the package.  Differences of branch
points are taken with the larger index first ("right ordering"), which
makes every Vandermonde product positive for sorted real branch points and
removes quartic-root branch ambiguity downstream.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence


MAX_GENUS = 8  # the theta lattice keys a point by 2g bits in a uint16


def check_genus(genus: int) -> None:
    """Reject a genus beyond the theta lattice's key limit, before any work."""
    if genus > MAX_GENUS:
        raise ValueError(f"genus {genus} is beyond the lattice key limit: the 2g-bit key "
                         f"must fit uint16, so g <= {MAX_GENUS}")


@dataclass(frozen=True)
class CurveSpec:
    """A hyperelliptic curve y^2 = prod_{j=1}^{2g+1} (x - e_j), real e_j."""

    genus: int
    branch_points: tuple[float, ...]
    label: str = ""

    @property
    def n_finite(self) -> int:
        return 2 * self.genus + 1

    def content_hash(self) -> str:
        payload = json.dumps({"g": self.genus, "e": [repr(e) for e in self.branch_points]})
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def validate_curve(genus: int, branch_points: Sequence[float], label: str = "") -> CurveSpec:
    """Build a CurveSpec, sorting the points and enforcing the invariants.

    The genus must be an integer and the branch points real numbers; a bool
    or a string is neither, though JSON and Python would convert it."""
    if isinstance(genus, bool) or not isinstance(genus, numbers.Integral):
        raise ValueError(f"genus must be an integer, got {genus!r}")
    if not isinstance(label, str):
        raise ValueError(f"label must be a string, got {label!r}")
    genus = int(genus)
    if genus < 1:  # genus 1 serves the oracle tests; a suite needs g >= 2
        raise ValueError(f"genus must be a positive integer (got {genus})")
    check_genus(genus)
    if isinstance(branch_points, (str, bytes, dict)) or not isinstance(branch_points, Iterable):
        raise ValueError(f"branch_points must be a list of real numbers, got {branch_points!r}")
    pts = list(branch_points)
    bad = [e for e in pts if isinstance(e, bool) or not isinstance(e, numbers.Real)]
    if bad:
        raise ValueError(f"branch_points must be real numbers, got {bad[0]!r}")
    pts = [float(e) for e in pts]
    if len(pts) != 2 * genus + 1:
        raise ValueError(
            f"branch_points: expected {2 * genus + 1} branch points for genus {genus}, got {len(pts)}"
        )
    if not all(math.isfinite(e) for e in pts):
        raise ValueError("branch_points: non-finite branch point")
    pts.sort()
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise ValueError(f"branch_points: duplicate branch point {a}")
    return CurveSpec(genus=genus, branch_points=tuple(pts), label=label)


def load_curve_file(path: str) -> CurveSpec:
    """Read a curve spec from a JSON file {"label", "genus", "branch_points"}."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not {"genus", "branch_points"} <= raw.keys():
        raise ValueError(f'{path}: a curve file is a JSON object with "genus" and "branch_points"')
    return validate_curve(raw["genus"], raw["branch_points"], raw.get("label", ""))


