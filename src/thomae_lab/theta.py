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
it depends on n only through its parity n mod 2.  The engine enumerates the
lattice once per tau, as the integer points p = 2q with ||L p|| <= 2R: p mod
2 is eps' and (p >> 1) mod 2 = n mod 2 is the parity bin.  The 2g-bit key
eps' << g | bin sorts every point of every class into one int16 array with
4^g + 1 key starts, so the class of eps' is a contiguous slice and its 2^g
parity bins are contiguous inside it.  The weights
m = exp(-pi q^t Im(tau) q) are real; only a tau with Re(tau) != 0 (none
that the certifier builds, whose tau is i Y) multiplies them by the phase
exp(i pi q^t Re(tau) q).

The lattice holds only half of its points.  The map q -> -q keeps the eps'
class and m, and sends n to -n - eps', so parity bin b to b XOR eps' (bin
bits and eps' bits both put the first entry first).  The enumeration keeps
the lexicographic half-space, where the last nonzero p_i is positive, plus
the origin.  For a derivative order k a class sums the moments
H[b] = sum q^{(x)k} m of each bin over the half, one column per sorted
multi-index; the mirror-bin identity

    M[b] = H[b] + (-1)^k H[b XOR eps']

gives the moments of the full class (less one origin term, m = 1, for
eps' = 0 and k = 0).  A 2^g x 2^g Hadamard product (+-1 entries
(-1)^{popcount(eps & bin)}) turns the bins into the values for all 2^g eps
at once.  The engine keeps one store per derivative order: an array with
row eps' << g | eps for every characteristic and one column per sorted
multi-index, plus the largest single |term| of each class.  One gather,
:meth:`ThetaEngine.values`, serves every reader, and builds a class the
first time one of its rows is read, with one batched Hadamard product for
every class a read adds; order 0 is built whole, by one segmented sum over
the key-sorted weights.  The engine is built for a highest derivative order
k (4 by default) and enumerates once, at the order-k radius R_k, which also
serves every lower order; it refuses any order above k, whose tail R_k
would cut short.  theta(char, v) for v != 0 pairs q with -q in the same
way: it is sum 2 m cos(2 pi q.(eps/2 + v)) over the half class, less 1 for
eps' = 0, and holds for complex v.
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
MAX_GENUS = 8  # the 2g-bit lattice key is a uint16
_BLOCK = 1 << 16  # points per block of the lattice's last coordinate and of the weights
_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass
class ThetaParams:
    tau: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        self.tau = np.ascontiguousarray(self.tau, dtype=complex)  # ThetaEngine views it as float
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"ThetaParams.tol must be finite and > 0, got {self.tol}")
        eig = np.linalg.eigvalsh(self.tau.imag)
        if np.min(eig) <= 0:
            raise ValueError("Im tau must be positive definite")


@dataclass
class DerivThetaTensor:
    """Fully symmetric order-m tensor of m-th derivative theta constants,
    as :meth:`ThetaEngine.theta_deriv` returns it."""

    char: HalfCharacteristic
    order: int
    entries: np.ndarray  # shape (g,)*order; shape () for order 0
    scale: float  # largest single |term| contributing to any entry


def truncation_radius(tau: np.ndarray, tol: float, order: int = 0, r_max: float = RADIUS_WARN) -> float:
    """Radius R with sum_{||Lq|| > R} |term| < tol, L^t L = pi Im(tau).

    Gaussian tail estimate: the number of lattice points in a shell of the
    metric L grows like R^{g-1} / det L, and an order-m derivative adds a
    polynomial factor (2 pi |q|)^m; both enter logarithmically, so a short
    fixed-point iteration converges.  The benchmark (bench/layers.py) wraps
    it by this name and reads ``tau``, ``tol`` and ``order`` by name for
    ``theta.lattice.radius`` and ``theta.lattice.radius_ratio_o0_o4``.
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


def _ellipsoid_points(chol: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer points p with ||chol p||^2 <= r^2 in the lexicographic
    half-space (the last nonzero entry is positive, or p = 0), as int16 rows
    sorted by key, and the 4^g + 1 key starts.

    The key of p is eps' << g | b, with eps' = p mod 2 and b = (p >> 1) mod 2,
    entry i at bit g-1-i of each.  The rows of one key are in lexicographic
    order of (p_{g-1}, ..., p_0), the order of the enumeration.

    Fincke-Pohst enumeration: with chol upper triangular,
    ||chol p||^2 = sum_i chol_ii^2 (p_i - center_i)^2 where center_i depends
    only on p_{i+1..g-1}.  Points are built from the last coordinate down;
    each partial point carries its partial sum and is extended by exactly
    the integers of its admissible interval, so no candidate outside the
    ellipsoid's slices is ever formed.  At most one partial point has an
    all-zero tail; its interval starts at p_i = 0, and it keeps an all-zero
    tail only through p_i = 0.

    The last step, entry 0, writes the points straight into key order: the
    points of one tail whose p_0 has a given residue mod 4 share one key and
    step by 4, so these groups are counted and sorted by key, and then
    expanded in blocks of at most _BLOCK points into their rows.  No
    whole-lattice array is formed besides the result.
    """
    g = chol.shape[0]
    tails = np.zeros((1, 0), dtype=np.int16)
    tail_key = np.zeros(1, dtype=np.uint16)
    quad = np.zeros(1)
    zero = 0  # row of the all-zero tail

    def interval(i: int, bound: float):
        d = chol[i, i]
        center = tails @ (-chol[i, i + 1 :] / d)
        half = np.sqrt(np.maximum(bound - quad, 0.0)) / d
        lo = np.ceil(center - half)
        lo[zero] = max(lo[zero], 0.0)
        counts = np.maximum(np.floor(center + half) - lo + 1, 0).astype(np.int64)
        return d, center, lo.astype(np.int64), counts

    def key_bits(i: int, x: np.ndarray) -> np.ndarray:
        # entry i: eps' bit at 2g-1-i, bin bit at g-1-i
        return ((x & 1) << (2 * g - 1 - i) | (x >> 1 & 1) << (g - 1 - i)).astype(np.uint16)

    def descend(i: int):
        # a little slack keeps the partial points that rounding would drop
        d, center, lo, counts = interval(i, r * r * (1.0 + 1e-9))
        first = np.cumsum(counts) - counts
        rows = np.repeat(np.arange(len(tails)), counts)
        x = np.arange(len(rows)) - np.repeat(first - lo, counts)  # lo, lo + 1, ... per row
        return (np.column_stack([x.astype(np.int16), tails[rows]]),
                tail_key[rows] | key_bits(i, x),
                quad[rows] + (d * (x - center[rows])) ** 2,
                int(first[zero]))  # the zero row's group starts at x = 0

    for i in range(g - 1, 0, -1):
        tails, tail_key, quad, zero = descend(i)
    _, _, lo, counts = interval(0, r * r)
    counts[quad > r * r] = 0
    del quad

    # Group 4 row + k holds the points lo + skip, lo + skip + 4, ... of the
    # row with p_0 = k mod 4, all of one key.  Sorting the groups by key
    # (stably, so the rows stay ascending within a key) gives the output
    # order; an empty group writes nothing.
    k = np.arange(4)
    keys = (tail_key[:, None] | key_bits(0, k)).ravel()
    sizes = counts[:, None] - ((k - lo[:, None]) & 3) + 3 >> 2
    starts = np.zeros(4**g + 1, dtype=np.int64)
    hist = np.bincount(keys, weights=sizes.ravel(), minlength=4**g)
    np.cumsum(hist.astype(np.int64), out=starts[1:])
    del sizes
    order = np.argsort(keys, kind="stable").astype(np.int32)
    del keys
    padded = np.zeros((len(tails), g), dtype=np.int16)  # tails with a free column for p_0
    padded[:, 1:] = tails
    out = np.empty((starts[-1], g), dtype=np.int16)
    done = 0
    per = max(_BLOCK // ((counts.max() + 3) // 4), 1)  # groups per block of <= _BLOCK points
    for a in range(0, len(order), per):
        group = order[a : a + per]
        row = group >> 2
        skip = ((group & 3) - lo[row]) & 3
        size = counts[row] - skip + 3 >> 2
        n = int(size.sum())
        block = out[done : done + n]
        np.take(padded, np.repeat(row, size), axis=0, out=block)
        step = np.arange(n) - np.repeat(np.cumsum(size) - size, size)
        block[:, 0] = np.repeat(lo[row] + skip, size) + 4 * step
        done += n
    return out, starts


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


@lru_cache(maxsize=None)
def _phases(g: int) -> np.ndarray:
    """P[eps', eps] = i^{popcount(eps & eps')}, the v = 0 phase of a class."""
    a = np.arange(2**g)
    return _I_POWERS[np.bitwise_count(a[:, None] & a) % 4]


@lru_cache(maxsize=None)
def _store_rows(g: int) -> np.ndarray:
    """The store row eps' << g | eps of every characteristic eps << g | eps'."""
    c = np.arange(4**g)
    return (c & (1 << g) - 1) << g | c >> g


class _LatticeClass(NamedTuple):
    """Points p = 2q of one half eps' class (the mirror -q of each is
    implied), sorted by parity bin: bin b (bit g-1-i is (p_i >> 1) mod 2)
    holds rows starts[b]:starts[b+1].  Views into the engine's lattice."""

    p: np.ndarray  # (N, g) int16
    m: np.ndarray  # (N,) exp(i pi q^t tau q), real when Re(tau) = 0
    starts: np.ndarray  # (2^g + 1,)


class ThetaEngine:
    """Theta constants and derivative tensors up to order ``order`` for one
    fixed tau.  The lattice radius is ``radius`` if given, else the order's
    truncation radius."""

    def __init__(self, tau: np.ndarray, tol: float = DEFAULT_TOL, radius: float | None = None,
                 order: int = 4):
        self.params = ThetaParams(tau=np.asarray(tau, dtype=complex), tol=tol)
        self.g = self.params.tau.shape[0]
        self.order = order
        self.radius = radius
        self._p: np.ndarray | None = None  # (N, g) int16 points p = 2q, key-sorted
        self._m: np.ndarray | None = None  # (N,) their weights
        self._starts: np.ndarray | None = None  # (4^g + 1,) key starts
        self._stores: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # order -> (T, scale)

    def _lattice(self) -> None:
        """Enumerate the lattice and weigh its points, once."""
        if self._p is not None:
            return
        g, tau = self.g, self.params.tau
        if g > MAX_GENUS:
            raise ValueError(f"genus {g} is beyond the lattice key limit: the 2g-bit key "
                             f"must fit uint16, so g <= {MAX_GENUS}")
        if self.radius is None:
            # the radius grows with the order, so R_k serves every order <= k
            self.radius = truncation_radius(tau, self.params.tol, order=self.order)
        chol = np.linalg.cholesky(np.pi * tau.imag).T  # upper, chol^t chol = pi Im(tau)
        # |p_i| <= 2R sqrt(((pi Im tau)^{-1})_ii) + 1 must fit int16
        if 2 * self.radius * np.linalg.norm(np.linalg.inv(chol), axis=1).max() + 1 >= 2**15:
            raise ValueError(f"theta truncation radius {self.radius} is too large")
        p, starts = _ellipsoid_points(chol, 2 * self.radius)
        # m = exp(-pi q^t Y q), times exp(i pi q^t X q) only when X = Re(tau) != 0
        y, x = tau.imag, tau.real
        real = not x.any()
        m = np.empty(len(p), dtype=float if real else complex)
        for lo in range(0, len(p), _BLOCK):
            q = 0.5 * p[lo : lo + _BLOCK]
            w = np.exp(-np.pi * np.einsum("ij,ij->i", q @ y, q))
            m[lo : lo + _BLOCK] = w if real else w * np.exp(1j * np.pi * np.einsum("ij,ij->i", q @ x, q))
        self._p, self._m, self._starts = p, m, starts

    @property
    def points(self) -> int:
        """Lattice points stored: one of each pair q, -q, and the origin."""
        self._lattice()
        return len(self._p)

    def _lattice_class(self, eps_prime: int) -> _LatticeClass:
        """The class of eps' (g bits, first entry most significant)."""
        self._lattice()
        starts = self._starts[eps_prime << self.g : (eps_prime + 1 << self.g) + 1]
        lo, hi = starts[0], starts[-1]
        return _LatticeClass(self._p[lo:hi], self._m[lo:hi], starts - lo)

    def _transform(self, bins: np.ndarray, eps_prime: np.ndarray, order: int) -> np.ndarray:
        """Values T[e, eps, j] of every eps for the half-class bin moments
        bins[e, b, j] of the classes eps_prime[e]."""
        g = self.g
        e = np.arange(len(eps_prime))[:, None]
        # -q is in bin b ^ eps' with the same m and (-1)^k times the monomial
        full = bins + (-1) ** order * bins[e, np.arange(2**g) ^ eps_prime[:, None]]
        if order == 0:
            full[eps_prime == 0, 0, 0] -= 1.0  # the origin is its own mirror
        phase = (2j * np.pi) ** order * _phases(g)[eps_prime]
        return phase[:, :, None] * (_hadamard(g) @ full)

    def _build(self, order: int, eps_prime: np.ndarray) -> None:
        """Fill the store rows and scales of the classes eps_prime with one
        batched transform.  Order 0 fills every class, from one segmented
        sum over the key-sorted weights."""
        g, m = self.g, self._m
        table, scale = self._stores[order]
        if order == 0:
            eps_prime, key_starts = np.arange(2**g), self._starts
            bins = np.zeros(4**g, dtype=m.dtype)
            filled = np.flatnonzero(np.diff(key_starts))
            bins[filled] = np.add.reduceat(m, key_starts[filled])
            size = np.zeros(2**g)
            cls_starts = key_starts[:: 2**g]
            occupied = np.flatnonzero(np.diff(cls_starts))
            size[occupied] = np.maximum.reduceat(np.abs(m), cls_starts[occupied])
        else:
            bins = np.zeros((len(eps_prime), 2**g, table.shape[1]), dtype=m.dtype)
            size = np.zeros(len(eps_prime))
            for i, e in enumerate(eps_prime.tolist()):
                bins[i], size[i] = self._bins(self._lattice_class(e), order)
        table.reshape(2**g, 2**g, -1)[eps_prime] = self._transform(
            bins.reshape(len(eps_prime), 2**g, -1), eps_prime, order)
        scale[eps_prime] = (2 * np.pi) ** order * size

    def _bins(self, cls: _LatticeClass, order: int) -> tuple[np.ndarray, float]:
        """bins[b, j], the sum over parity bin b of the class of m times the
        j-th sorted monomial of degree order >= 1, and the class's largest
        |m| max_i |q_i|^order."""
        g = self.g
        tail, pick, _ = _layout(g, order)
        bins = np.zeros((2**g, len(pick)), dtype=cls.m.dtype)
        filled = np.flatnonzero(np.diff(cls.starts))
        q = 0.5 * cls.p
        size = float(np.max(np.abs(cls.m) * reduce(np.maximum, np.abs(q).T) ** order, initial=0.0))
        if order == 1:
            bins[filled] = np.add.reduceat(cls.m[:, None] * q, cls.starts[filled])
            return bins, size
        for b in filled:
            lo, hi = cls.starts[b], cls.starts[b + 1]
            rest = cls.m[lo:hi, None]
            for c in tail.T:
                rest = rest * q[lo:hi, c]
            bins[b] = (q[lo:hi].T @ rest).ravel()[pick]
        return bins, size

    def values(self, chars: np.ndarray, order: int) -> np.ndarray:
        """Order-k derivative tensors at 0 of theta[c] for an int array of
        characteristic bits c = eps << g | eps' (``HalfCharacteristic.bits``),
        shape chars.shape + (g,)*k: the constants for k = 0, the gradients for
        k = 1.  A class is built the first time one of its rows is read."""
        self._check_order(order)
        self._lattice()
        g = self.g
        if order not in self._stores:
            self._stores[order] = (np.empty((4**g, math.comb(g + order - 1, order)), dtype=complex),
                                   np.full(2**g, np.nan))
        table, scale = self._stores[order]
        chars = np.asarray(chars)
        if math.isnan(scale.sum()):  # a class is not built yet
            new = np.zeros(2**g, dtype=bool)
            new[chars & (1 << g) - 1] = True
            new = np.flatnonzero(new & np.isnan(scale))
            if len(new):
                self._build(order, new)
        # a C-contiguous gather, as the families' sums expect
        out = (table[:, 0] if order == 0 else table)[_store_rows(g)[chars]]
        if order < 2:
            return out
        return np.take(out, _layout(g, order)[2], axis=-1).reshape(chars.shape + (g,) * order)

    def theta(self, char: HalfCharacteristic, v: np.ndarray | None = None) -> complex:
        """theta[char](v); v defaults to 0.  The cosine sum at v != 0 reads
        the lattice directly, not the stores, and so stays an independent
        check of the Hadamard transform that builds them.  No run calls it;
        it is also a traced entry point of the benchmark (bench/layers.py),
        whose ``theta.const.*`` and ``theta.lattice.classes`` metrics count
        its calls."""
        self._check(char)
        if v is None:
            return complex(self.values(char.bits, 0))
        g = self.g
        eps_prime = char.bits & ((1 << g) - 1)
        cls = self._lattice_class(eps_prime)
        eps = char.bits >> g >> np.arange(g - 1, -1, -1) & 1
        shift = 0.5 * eps + np.asarray(v, dtype=complex)
        # q and -q together give 2 m cos(2 pi q.shift); the origin only m = 1
        return complex(2.0 * np.sum(cls.m * np.cos(np.pi * (cls.p @ shift))) - (eps_prime == 0))

    def theta_deriv(self, char: HalfCharacteristic, order: int) -> DerivThetaTensor:
        """All order-m partial derivatives of theta[char] at v = 0.  No run
        calls it: it is a traced entry point of the benchmark
        (bench/layers.py), which reads ``order`` by name for its
        ``theta.deriv.calls.o1``..``o3`` counters and times it as
        ``theta.deriv.self_s``; :meth:`CurveContext.deriv` calls it."""
        self._check(char)
        entries = np.asarray(self.values(char.bits, order))  # shape () at order 0
        scale = self._stores[order][1][char.bits & ((1 << self.g) - 1)]
        return DerivThetaTensor(char=char, order=order, entries=entries, scale=float(scale))

    def _check(self, char: HalfCharacteristic) -> None:
        if char.genus != self.g:
            raise ValueError("characteristic genus mismatch")

    def _check_order(self, order: int) -> None:
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > self.order:
            raise ValueError(f"derivative order {order} is above the engine's order {self.order}: "
                             f"the order-{self.order} lattice radius cuts its tail short")
