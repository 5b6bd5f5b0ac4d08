"""Riemann theta constants with half-period characteristics and their
derivative tensors at v = 0, by truncated lattice summation.

The series is summed in the shifted form

    theta[eps](v; tau) = sum_{n in Z^g} exp( i pi q^t tau q + 2 i pi q^t (v + eps/2) ),
    q = n + eps'/2,

whose k-th v-derivative at 0 carries the polynomial prefactor
prod_i (2 pi i q_{n_i}).  Terms are kept inside the ellipsoid
||L q|| <= R with L the Cholesky factor of pi Im(tau); the radius is chosen
from a Gaussian tail estimate so the absolute truncation error stays below
the requested tolerance (Deconinck, Heil, Bobenko, van Hoeij & Schmies,
"Computing Riemann theta functions", Math. Comp. 2004).

At v = 0 the phase splits as exp(i pi q.eps) = i^{eps.eps'} (-1)^{n.eps}, so
it depends on n only through its parity n mod 2.  The engine therefore
builds one lattice class per eps': the integer offsets n (int16, sorted by
parity bin), their weights m = exp(i pi q^t tau q) and the 2^g bin starts.

A class holds only half of its points.  The map q -> -q keeps the eps'
class and m, and sends n to -n - eps', so parity bin b to b XOR eps' (bin
bits and eps' bits both put the first entry first).  The class keeps the
lexicographic half-space, where the last nonzero q_i is positive, plus the
origin when eps' = 0.  For a derivative order k it sums the moments
H[b] = sum q^{(x)k} m of each bin over the half, one column per sorted
multi-index; the mirror-bin identity

    M[b] = H[b] + (-1)^k H[b XOR eps']

gives the moments of the full class (less one origin term, m = 1, for
eps' = 0 and k = 0).  A single 2^g x 2^g Hadamard product (+-1 entries
(-1)^{popcount(eps & bin)}) turns the bins into the values for all 2^g eps
at once.  That table is cached per (eps', order) and public as
:meth:`ThetaEngine.table`, which the curve context copies into its dense
per-curve stores; a lookup reads one row.
Every order uses the order-4 radius.  theta(char, v) for v != 0 pairs q with
-q in the same way: it is sum 2 m cos(2 pi q.(eps/2 + v)) over the half
class, less 1 for eps' = 0, and holds for complex v.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, product
from typing import NamedTuple

import numpy as np

from .characteristics import HalfCharacteristic

DEFAULT_TOL = 1e-12
RADIUS_WARN = 40.0
_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass
class ThetaParams:
    tau: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        self.tau = np.ascontiguousarray(self.tau, dtype=complex)  # ThetaEngine views it as float
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        eig = np.linalg.eigvalsh(self.tau.imag)
        if np.min(eig) <= 0:
            raise ValueError("Im tau must be positive definite")


@dataclass
class DerivThetaTensor:
    """Fully symmetric order-m tensor of m-th derivative theta constants."""

    char: HalfCharacteristic
    order: int
    entries: np.ndarray  # shape (g,)*order; shape () for order 0
    scale: float  # largest single |term| contributing to any entry

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries))) if self.order else abs(complex(self.entries))


def truncation_radius(tau: np.ndarray, tol: float, order: int = 0, r_max: float = RADIUS_WARN) -> float:
    """Radius R with sum_{||Lq|| > R} |term| < tol, L^t L = pi Im(tau).

    Gaussian tail estimate: the number of lattice points in a shell of the
    metric L grows like R^{g-1} / det L, and an order-m derivative adds a
    polynomial factor (2 pi |q|)^m; both enter logarithmically, so a short
    fixed-point iteration converges.
    """
    tau = np.asarray(tau, dtype=complex)
    g = tau.shape[0]
    lam_min = float(np.min(np.linalg.eigvalsh(np.pi * tau.imag)))
    det_l = math.sqrt(abs(np.linalg.det(np.pi * tau.imag)))
    r = math.sqrt(max(math.log(1.0 / tol), 1.0)) + 1.0
    for _ in range(4):
        poly = order * math.log1p(2.0 * math.pi * r / math.sqrt(lam_min))
        shell = max(g, 1) * math.log1p(r) + math.log1p(2.0 ** g / det_l)
        r = math.sqrt(max(math.log(1.0 / tol) + poly + shell + 2.0, 1.0))
    if r / math.sqrt(lam_min) > r_max:
        warnings.warn(
            f"theta truncation radius {r / math.sqrt(lam_min):.1f} exceeds {r_max}: "
            "Im tau is nearly singular",
            RuntimeWarning,
        )
    return r


def _ellipsoid_points(chol: np.ndarray, c: np.ndarray, r: float) -> np.ndarray:
    """Integer offsets n such that q = n + c satisfies ||chol q||^2 <= r^2 and
    q lies in the lexicographic half-space: its last nonzero entry is
    positive, or q = 0.

    Fincke-Pohst enumeration: with chol upper triangular,
    ||chol q||^2 = sum_i chol_ii^2 (q_i - center_i)^2 where center_i depends
    only on q_{i+1..g-1}.  Points are built from the last coordinate down;
    each partial point carries its partial sum and is extended by exactly
    the integers of its admissible interval, so no candidate outside the
    ellipsoid's slices is ever formed.  At most one partial point has an
    all-zero q tail; its interval starts at q_i >= 0, and it keeps an
    all-zero tail only through q_i = 0.
    """
    g = chol.shape[0]
    slack = r * r * (1.0 + 1e-9)
    tails = np.zeros((1, 0), dtype=np.int64)
    quad = np.zeros(1)
    zero = 0  # row of the all-zero q tail, -1 once there is none
    for i in range(g - 1, -1, -1):
        d = chol[i, i]
        # center and x are offsets: q_i = x + c_i
        center = (tails + c[i + 1 :]) @ (-chol[i, i + 1 :] / d) - c[i]
        half = np.sqrt(np.maximum(slack - quad, 0.0)) / d
        lo = np.ceil(center - half)
        if zero >= 0:
            lo[zero] = max(lo[zero], math.ceil(-c[i]))
        counts = np.maximum(np.floor(center + half) - lo + 1, 0).astype(np.int64)
        ends = np.cumsum(counts)
        rows = np.repeat(np.arange(len(tails)), counts)
        # x runs through lo, lo + 1, ... within each row's group
        x = np.arange(len(rows)) - np.repeat(ends - counts - lo.astype(np.int64), counts)
        quad = quad[rows] + (d * (x - center[rows])) ** 2
        tails = np.column_stack([x, tails[rows]])
        # the zero row's group starts at x = 0, i.e. q_i = c_i
        zero = int(ends[zero] - counts[zero]) if zero >= 0 and c[i] == 0 else -1
    return tails[quad <= r * r]


@lru_cache(maxsize=None)
def _hadamard(g: int) -> np.ndarray:
    """H[eps, b] = (-1)^{popcount(eps & b)} for 0 <= eps, b < 2^g."""
    h = np.ones((1, 1))
    for _ in range(g):
        h = np.block([[h, h], [h, -h]])
    return h


@lru_cache(maxsize=None)
def _layout(g: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays for the order-k moments in g variables.

    A table column is a sorted multi-index alpha.  For k >= 1 the moments of
    a bin are q^t (m * rest), where the columns of ``rest`` are the
    monomials of the sorted multi-indices of order k - 1, listed by
    ``tail``; ``pick[j]`` is the position of alpha_j in that flattened
    g x len(tail) product.  ``flat`` gives, for every position of the full
    (g,)*k tensor in C order, the column of its sorted multi-index.
    """
    full = list(combinations_with_replacement(range(g), order))
    rest = list(combinations_with_replacement(range(g), max(order - 1, 0)))
    tail = np.array(rest, dtype=np.intp).reshape(len(rest), -1)
    pos = {t: j for j, t in enumerate(rest)}
    pick = np.array([a[0] * len(rest) + pos[a[1:]] if order else 0 for a in full])
    col = {a: j for j, a in enumerate(full)}
    flat = np.array([col[tuple(sorted(i))] for i in product(range(g), repeat=order)])
    return tail, pick, flat


class _LatticeClass(NamedTuple):
    """Points q = n + shift of one half eps' class (the mirror -q of each is
    implied), sorted by parity bin: bin b (bit g-1-i is n_i mod 2) holds rows
    starts[b]:starts[b+1]."""

    shift: np.ndarray  # eps'/2
    n: np.ndarray  # (N, g) int16 integer offsets
    m: np.ndarray  # (N,) exp(i pi q^t tau q)
    starts: np.ndarray  # (2^g + 1,)


class ThetaEngine:
    """Theta constants and derivative tensors for one fixed tau."""

    def __init__(self, tau: np.ndarray, tol: float = DEFAULT_TOL, radius: float | None = None):
        self.params = ThetaParams(tau=np.asarray(tau, dtype=complex), tol=tol)
        self.g = self.params.tau.shape[0]
        self.radius = radius
        self._chol: np.ndarray | None = None  # upper triangular, chol^t chol = pi Im(tau)
        self._classes: dict[int, _LatticeClass] = {}
        self._tables: dict[tuple[int, int], tuple[np.ndarray, float]] = {}

    def _lattice_class(self, eps_prime: int) -> _LatticeClass:
        """The class of eps' (g bits, first entry most significant)."""
        cls = self._classes.get(eps_prime)
        if cls is not None:
            return cls
        g, tau = self.g, self.params.tau
        if self._chol is None:
            if self.radius is None:
                # One radius for every derivative order used (<= 4).
                self.radius = truncation_radius(tau, self.params.tol, order=4)
            self._chol = np.linalg.cholesky(np.pi * tau.imag).T
            # |n_i| <= R sqrt((y^{-1})_ii) + 1 must fit the int16 offsets
            if self.radius * np.linalg.norm(np.linalg.inv(self._chol), axis=1).max() + 1 >= 2**15:
                raise ValueError(f"theta truncation radius {self.radius} is too large")
        weights = 1 << np.arange(g - 1, -1, -1)
        shift = 0.5 * ((eps_prime & weights) > 0)
        n = _ellipsoid_points(self._chol, shift, self.radius)
        parity_bin = ((n & 1) @ weights).astype(np.uint16)  # radix-sortable
        order = np.argsort(parity_bin, kind="stable")
        starts = np.searchsorted(parity_bin[order], np.arange(2**g + 1))
        n = n.astype(np.int16)[order]
        q = n + shift
        # q @ tau as one real product: a complex matrix viewed as float interleaves re, im
        m = np.exp(1j * np.pi * np.einsum("ij,ij->i", (q @ tau.view(float)).view(complex), q))
        cls = self._classes[eps_prime] = _LatticeClass(shift, n, m, starts)
        return cls

    def table(self, eps_prime: int, order: int) -> tuple[np.ndarray, float]:
        """(T, scale): T[eps, j] is the derivative of theta[eps; eps'] at 0
        along the j-th sorted multi-index of the order (for order 1, j is the
        coordinate); scale is the largest single |term|, the same for every
        eps.  Cached, and read-only."""
        key = (eps_prime, order)
        hit = self._tables.get(key)
        if hit is not None:
            return hit
        cls = self._lattice_class(eps_prime)
        g = self.g
        # bins[b, j]: sum over parity bin b of m times the j-th sorted monomial
        tail, pick, _ = _layout(g, order)
        bins = np.zeros((2**g, len(pick)), dtype=complex)
        filled = np.flatnonzero(np.diff(cls.starts))
        size = np.abs(cls.m)  # per point, its largest |term|: |m| max_i |q_i|^order
        if order == 0:
            bins[filled, 0] = np.add.reduceat(cls.m, cls.starts[filled])
        else:
            q = cls.n + cls.shift
            size = size * reduce(np.maximum, np.abs(q).T) ** order
            for b in filled:
                lo, hi = cls.starts[b], cls.starts[b + 1]
                rest = cls.m[lo:hi, None]
                for c in tail.T:
                    rest = rest * q[lo:hi, c]
                bins[b] = (q[lo:hi].T @ rest).ravel()[pick]
        # -q is in bin b ^ eps' with the same m and (-1)^k times the monomial
        bins += (-1) ** order * bins[np.arange(2**g) ^ eps_prime]
        if eps_prime == 0 and order == 0:
            bins[0, 0] -= 1.0  # the origin is its own mirror
        pref = (2j * np.pi) ** order
        phase = _I_POWERS[[(eps & eps_prime).bit_count() % 4 for eps in range(2**g)]]
        table = (pref * phase)[:, None] * (_hadamard(g) @ bins)
        table.flags.writeable = False
        out = self._tables[key] = (table, abs(pref) * float(np.max(size, initial=0.0)))
        return out

    def theta(self, char: HalfCharacteristic, v: np.ndarray | None = None) -> complex:
        """theta[char](v); v defaults to 0."""
        self._check(char)
        eps, eps_prime = char.bits >> self.g, char.bits & ((1 << self.g) - 1)
        if v is None:
            return complex(self.table(eps_prime, 0)[0][eps, 0])
        cls = self._lattice_class(eps_prime)
        q = cls.n + cls.shift
        shift = 0.5 * np.asarray(char.eps, dtype=float) + np.asarray(v, dtype=complex)
        # q and -q together give 2 m cos(2 pi q.shift); the origin only m = 1
        return complex(2.0 * np.sum(cls.m * np.cos(2 * np.pi * (q @ shift))) - (eps_prime == 0))

    def theta_deriv(self, char: HalfCharacteristic, order: int) -> DerivThetaTensor:
        """All order-m partial derivatives of theta[char] at v = 0."""
        self._check(char)
        if order < 0:
            raise ValueError("order must be >= 0")
        g = self.g
        table, scale = self.table(char.bits & ((1 << g) - 1), order)
        entries = table[char.bits >> g][_layout(g, order)[2]].reshape((g,) * order)
        return DerivThetaTensor(char=char, order=order, entries=entries, scale=scale)

    def gradient(self, char: HalfCharacteristic) -> np.ndarray:
        return self.theta_deriv(char, 1).entries

    def _check(self, char: HalfCharacteristic) -> None:
        if char.genus != self.g:
            raise ValueError("characteristic genus mismatch")
