"""Riemann theta constants with half-period characteristics and their
derivative tensors at v = 0, by truncated lattice summation.

The series is summed in the shifted form

    theta[eps](v; tau) = sum_{n in Z^g} exp( i pi q^t tau q + 2 i pi q^t (v + eps/2) ),
    q = n + eps'/2,

whose k-th v-derivative at 0 carries the polynomial prefactor
prod_i (2 pi i q_{n_i}).  Terms are kept inside the ellipsoid
||L q|| <= R with L the Cholesky factor of pi Im(tau).  The radius is the
smallest R at which a proven bound on the summed |term| outside it, in the
lattice-point-count style of Deconinck, Heil, Bobenko, van Hoeij & Schmies
("Computing Riemann theta functions", Math. Comp. 2004), falls below the
requested tolerance; :func:`truncation_radius` states the bound.

At v = 0 the phase splits as exp(i pi q.eps) = i^{eps.eps'} (-1)^{n.eps}, so
it depends on n only through its parity n mod 2.  The engine enumerates a
lattice once per tau, as the integer points p = 2q with ||L p|| <= 2R: p mod
2 is eps' and (p >> 1) mod 2 = n mod 2 is the parity bin.  The 2g-bit key
eps' << g | bin sorts every point of every class into one integer array with
4^g + 1 key starts, so the class of eps' is a contiguous slice and its 2^g
parity bins are contiguous inside it.  The array is int8 when the proven
bound on |p_i| (:func:`_point_dtype`, the one width bound, uncached: it
inverts the g x g factor on each call) is below 2^7, as on every curve the
certifier builds, else int16; every float formed from p is the same either
way.  A curve with real branch points has tau = i Y, so the weights
m = exp(-pi q^t Y q) are real; the engine refuses a tau with Re(tau) != 0.

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
at once.  The engine keeps one store per derivative order, (table, built):
the table has row eps << g | eps' (the characteristic's bits) for every
characteristic, so a class's rows lie at stride 2^g, and one column per
sorted multi-index, and built marks the classes whose rows are filled.
One gather, :meth:`ThetaEngine.values`, serves every reader, and builds a
class the first time one of its rows is read, with one batched Hadamard
product for every class a read adds (:meth:`ThetaEngine._build`).  The
engine is built for a highest derivative order k (4 by default) and refuses
any order above k, whose tail R_k would cut short.  Orders 0, 1 and 2,
which the Thomae formulas, gradients and Hessians read, sum one lattice,
enumerated and weighed at construction at R_min(k, 2) (the radius grows
with the order).  A class read at order 3 or 4 enumerates its own points
at R_k, its slice of a lattice at R_k in the same order, builds its rows
and drops them.
theta(char, v) for v != 0 reads the lattice and pairs q with -q in the
same way: it is sum 2 m cos(2 pi q.(eps/2 + v)) over the half class, less 1
for eps' = 0, and holds for complex v.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import NamedTuple

import numpy as np

from .characteristics import HalfCharacteristic
from .curve import check_genus

DEFAULT_TOL = 1e-12
RADIUS_WARN = 40.0
_BLOCK = 1 << 14  # points per weight block; groups per batch of p_0; 4 * _BLOCK products per chunk
_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass
class DerivThetaTensor:
    """Fully symmetric order-m tensor of m-th derivative theta constants,
    as :meth:`ThetaEngine.theta_deriv` returns it."""

    char: HalfCharacteristic
    order: int
    entries: np.ndarray  # shape (g,)*order; shape () for order 0
    scale: float  # largest single |term| of any entry, computed on each call


def _factor(tau: np.ndarray) -> tuple[np.ndarray, float]:
    """The upper Cholesky factor chol of pi Im(tau) (chol^t chol = pi Im(tau))
    and its smallest eigenvalue lam_min, read-only.  Cached by the bytes of
    tau, so an engine and each of its :func:`truncation_radius` calls share
    one factorisation: the radius keeps the signature ``(tau, tol, order)``
    that the benchmark traces, and takes no factor argument."""
    return _factor_of(np.asarray(tau, dtype=complex).tobytes(), len(tau))


@lru_cache(maxsize=4)
def _factor_of(tau: bytes, g: int) -> tuple[np.ndarray, float]:
    y = np.pi * np.frombuffer(tau, dtype=complex).reshape(g, g).imag
    chol = np.linalg.cholesky(y).T
    chol.flags.writeable = False
    return chol, float(np.linalg.eigvalsh(y)[0])


def _tail_bound(tau: np.ndarray, order: int):
    """lam_min and the function R -> (B_k(R), -dB_k/d(R^2)) of
    :func:`truncation_radius` for k = order."""
    chol, lam_min = _factor(tau)
    g = len(chol)
    diag = chol.diagonal().tolist()  # Gram-Schmidt lengths of the basis L e_i
    mu = 0.5 * math.hypot(*diag)
    unit_ball = math.pi ** (g / 2) / math.gamma(g / 2 + 1)
    scale = (2 * math.pi / math.sqrt(lam_min)) ** order * unit_ball / math.prod(diag)
    coef = [g * math.comb(g - 1, j) * mu ** (g - 1 - j) for j in range(g)]

    def bound(r: float) -> tuple[float, float]:
        r2, e = r * r, math.exp(-r * r)
        ints = [0.5 * math.sqrt(math.pi) * math.erfc(r), 0.5 * e]  # I_n(R), n = 0, 1, ...
        for n in range(2, g + order):
            ints.append(0.5 * r ** (n - 1) * e + 0.5 * (n - 1) * ints[n - 2])
        head = scale * (r + mu) ** g * r**order * e
        # dB/dR = -N(R) (-h'(R)) = -head (2 R^2 - k) / R
        return head + scale * sum(map(math.prod, zip(coef, ints[order:]))), head * (r2 - order / 2) / r2

    return lam_min, bound


def truncation_radius(tau: np.ndarray, tol: float, order: int = 0) -> float:
    """The smallest R (to about 1e-3 in R^2) at which the proven bound B_k(R)
    on the order-k tail falls below tol.  L^t L = pi Im(tau).

    B_k(R) bounds, for every characteristic and every order-k multi-index
    alpha, the sum over the class q in Z^g + eps'/2 with ||L q|| > R of
    |(2 pi q)^alpha| exp(-||L q||^2), which bounds the truncation error of
    each entry:

        B_k(R) = (2 pi / sqrt(lam_min))^k (V_g / det L)
                 [ (R + mu)^g R^k e^{-R^2}
                   + g sum_{j<g} C(g-1, j) mu^{g-1-j} I_{j+k}(R) ],

    with lam_min the smallest eigenvalue of L^t L, V_g the volume of the unit
    g-ball, mu = ||diag L|| / 2 and I_n(R) = int_R^oo s^n e^{-s^2} ds
    (I_0 = sqrt(pi) erfc(R) / 2, I_1 = e^{-R^2} / 2, I_n = R^{n-1} e^{-R^2} / 2
    + (n - 1) I_{n-2} / 2).  Its proof has three steps:

    1. Count.  Babai's bound puts every point of R^g within mu of the lattice
       L Z^g (the diagonal of the triangular L gives the Gram-Schmidt
       lengths), so the Voronoi cells, of volume det L each, lie in balls of
       radius mu around their points, and the class has at most
       N(s) = V_g (s + mu)^g / det L points with ||L q|| <= s.
    2. Size.  ||L q||^2 >= lam_min ||q||^2, so
       |q^alpha| <= ||q||^k <= (||L q|| / sqrt(lam_min))^k, and a term is at
       most (2 pi / sqrt(lam_min))^k h(||L q||), h(s) = s^k e^{-s^2}.
    3. Abel summation.  h decreases past sqrt(k / 2) < R, so the sum of h
       over the points beyond R is at most int_R^oo N(s) (-h'(s)) ds, which
       integrates by parts to the bracket above.

    R^2 is found by Newton's method on ln B_k as a function of R^2, from
    ln(1 / tol): R^2 <- R^2 + ln(B_k / tol) B_k / D with D = -dB_k/d(R^2),
    which is the fixed-point step R^2 <- R^2 + ln(B_k / tol) lengthened by
    B_k / D and takes about half as many steps.  It stops at the first R
    with B_k(R) < tol and a step shorter than 1e-3, and raises if there is
    none.

    The benchmark (bench/layers.py) wraps this function by name and reads
    ``tau``, ``tol`` and ``order`` by name for ``theta.lattice.radius`` and
    ``theta.lattice.radius_ratio_o0_o4``.
    """
    lam_min, bound = _tail_bound(tau, order)
    floor = order / 2 + 1.0  # keeps R^2 past k/2, where h decreases and D > 0
    r2 = max(math.log(1.0 / tol), floor)
    for _ in range(20):
        b, slope = bound(math.sqrt(r2))
        step = math.log(b / tol) * b / slope
        if b < tol and (step > -1e-3 or r2 + step < floor):
            break
        r2 += step
    else:
        raise ArithmeticError(f"no theta truncation radius with a tail bound below {tol} was found")
    r = math.sqrt(r2)
    if r / math.sqrt(lam_min) > RADIUS_WARN:
        warnings.warn(
            f"theta truncation radius {r / math.sqrt(lam_min):.1f} exceeds {RADIUS_WARN}: "
            "Im tau is nearly singular",
            RuntimeWarning,
        )
    return r


def _point_dtype(chol: np.ndarray, r: float) -> type[np.signedinteger]:
    """The narrowest signed type, int8 or int16, of the points p with
    ||chol p|| <= r, the points p = 2q of a lattice at R = r / 2.  Each
    |p_i| = |e_i^t chol^{-1} (chol p)| is at most r ||row i of chol^{-1}||,
    plus 1 for the enumeration's slack; a bound of 2^15 or more raises."""
    bound = r * float(np.linalg.norm(np.linalg.inv(chol), axis=1).max()) + 1
    if bound < 2**7:
        return np.int8
    if bound < 2**15:
        return np.int16
    raise ValueError(f"theta truncation radius {r / 2} is too large: |p_i| may reach {bound:.0f}, past int16")


def _ellipsoid_points(chol: np.ndarray, r: float, parity: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Integer points p with ||chol p||^2 <= r^2 in the lexicographic
    half-space (the last nonzero entry is positive, or p = 0), as rows of
    :func:`_point_dtype` sorted by key, and the 4^g + 1 key starts.  The
    tails and padded tails of the enumeration take the same type, and an r
    past int16 raises before any point is formed.  With a class ``parity``
    eps', only the points p = eps' mod 2: entry i steps by 2 from bit g-1-i
    of eps', and the result is that class's rows, sorted by parity bin, and
    its 2^g + 1 bin starts.

    The key of p is eps' << g | b, with eps' = p mod 2 and b = (p >> 1) mod 2,
    entry i at bit g-1-i of each.  The rows of one key are in lexicographic
    order of (p_{g-1}, ..., p_0), the order of the enumeration, so a class
    enumerated alone has the rows of its slice of the whole lattice.

    Fincke-Pohst enumeration: with chol upper triangular,
    ||chol p||^2 = sum_i chol_ii^2 (p_i - center_i)^2 where center_i depends
    only on p_{i+1..g-1}.  Points are built from the last coordinate down;
    each partial point carries its partial sum and is extended by exactly
    the integers of its admissible interval, so no candidate outside the
    ellipsoid's slices is ever formed.  At most one partial point has an
    all-zero tail; its interval starts at p_i = 0 (p_i = 1 for an odd
    parity bit), and it keeps an all-zero tail only through p_i = 0.
    The top level, entry g-1, extends only the empty tail, whose center is 0:
    its integers par_{g-1}, par_{g-1} + 1 (or + 2 for a class), ... up to
    sqrt(r^2 (1 + 1e-9)) / chol_{g-1,g-1} are formed with scalars, the same
    values the general step gives them.  At g = 1 the top level is entry 0,
    the last step below.

    The last step, entry 0, writes the points straight into key order: the
    points of one tail whose p_0 has a given residue k mod 4 (a group) share
    one key and step by 4.  With the tails sorted stably by key, a key's
    groups are one range of them, and batches of _BLOCK groups of
    consecutive keys are expanded into their rows, p_0 by one np.repeat.
    No whole-lattice array is formed besides the result.
    """
    g, dtype = chol.shape[0], _point_dtype(chol, r)
    par = [0 if parity is None else parity >> g - 1 - i & 1 for i in range(g)]
    tails = np.zeros((1, 0), dtype=dtype)
    tail_key = np.zeros(1, dtype=np.uint16)
    quad = np.zeros(1)
    zero = 0  # row of the all-zero tail, None once there is none

    def interval(i: int, bound: float):
        d = chol[i, i]
        center = tails @ (-chol[i, i + 1 :] / d)
        half = np.sqrt(np.maximum(bound - quad, 0.0)) / d
        lo = np.ceil(center - half)
        if parity is not None:
            lo += (lo - par[i]) % 2  # up to the first integer of the class's parity
        if zero is not None:
            lo[zero] = max(lo[zero], par[i])
        counts = np.maximum(np.floor(center + half) - lo + 1, 0).astype(np.int64)
        if parity is not None:
            counts = counts + 1 >> 1  # every other integer from lo on
        return d, center, lo.astype(np.int64), counts

    def key_bits(i: int, x: np.ndarray) -> np.ndarray:
        # entry i: eps' bit at 2g-1-i, bin bit at g-1-i
        return ((x & 1) << (2 * g - 1 - i) | (x >> 1 & 1) << (g - 1 - i)).astype(np.uint16)

    slack = r * r * (1.0 + 1e-9)  # keeps the partial points that rounding would drop

    def descend(i: int):
        d, center, lo, counts = interval(i, slack)
        first = np.cumsum(counts) - counts
        rows = np.repeat(np.arange(len(tails)), counts)
        x = np.arange(len(rows)) - np.repeat(first - lo, counts)  # lo, lo + 1, ... per row
        if parity is not None:
            x += np.arange(len(rows)) - np.repeat(first, counts)  # lo, lo + 2, ...
        return (np.column_stack([x.astype(dtype), tails[rows]]),
                tail_key[rows] | key_bits(i, x),
                quad[rows] + (d * (x - center[rows])) ** 2,
                None if zero is None or par[i] else int(first[zero]))  # the zero row's group starts at x = 0

    if g > 1:  # entry g-1, from the one empty tail: its center is 0 and its first row the zero row
        i, d = g - 1, chol[g - 1, g - 1]
        half = math.sqrt(slack) / d
        x = np.arange(par[i], math.floor(half) + 1, 1 + (parity is not None), dtype=np.int64)
        tails, tail_key, quad = x.astype(dtype)[:, None], key_bits(i, x), (d * x) ** 2
        zero = None if par[i] else 0
    for i in range(g - 2, 0, -1):
        tails, tail_key, quad, zero = descend(i)
    _, _, lo, counts = interval(0, r * r)
    counts[quad > r * r] = 0
    del quad

    # the keys written, their p_0 mod 4 (from entry 0's two bits) and their tail key
    key = np.arange(4**g) if parity is None else parity << g | np.arange(2**g)
    k, base = key >> 2 * g - 1 | (key >> g - 1 & 1) << 1, key & ~(1 << 2 * g - 1 | 1 << g - 1)
    by_key = np.argsort(tail_key, kind="stable")
    ta, tb = (np.searchsorted(tail_key[by_key], base, side) for side in ("left", "right"))
    padded = np.zeros((len(tails), g), dtype=dtype)  # tails with a free column for p_0
    padded[:, 1:] = tails
    del tails
    lo, counts = lo[by_key], counts[by_key]  # in sorted order: the batches read them in turn
    span = counts if parity is None else 2 * counts  # each tail's p_0 lie in [lo, lo + span)
    out = np.empty((counts.sum(), g), dtype=dtype)
    starts = np.empty(len(key) + 1, dtype=np.int64)
    done = 0
    per = max(_BLOCK * len(key) // max(4 * len(lo), 1), 1)  # keys per batch: about _BLOCK groups
    for keys in (slice(k1, min(k1 + per, len(key))) for k1 in range(0, len(key), per)):
        n = tb[keys] - ta[keys]
        t = np.repeat(ta[keys] - np.cumsum(n) + n, n) + np.arange(n.sum())  # the groups' tails
        first = lo[t] + ((np.repeat(k[keys], n) - lo[t]) & 3)
        size = span[t] + lo[t] - first + 3 >> 2
        before = np.zeros(len(t) + 1, dtype=np.int64)  # points of the batch before each group
        np.cumsum(size, out=before[1:])
        starts[keys] = done + before[np.cumsum(n) - n]
        block = out[done : done + before[-1]]
        np.take(padded, np.repeat(by_key[t], size), axis=0, out=block)
        # the j-th point of the block is first + 4 (j - before) of its group
        block[:, 0] = np.repeat(first - 4 * before[:-1], size) + 4 * np.arange(len(block))
        done += len(block)
    starts[-1] = done
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


class _LatticeClass(NamedTuple):
    """Points p = 2q of one half eps' class (the mirror -q of each is
    implied), sorted by parity bin: bin b (bit g-1-i is (p_i >> 1) mod 2)
    holds rows starts[b]:starts[b+1].  Views into the engine's lattice, or
    a class enumerated on its own."""

    p: np.ndarray  # (N, g) int8, or int16 past a bound of 2^7
    m: np.ndarray  # (N,) float64 exp(-pi q^t Y q), tau = i Y
    starts: np.ndarray  # (2^g + 1,)


class ThetaEngine:
    """Theta constants and derivative tensors up to order ``order`` for one
    fixed tau = i Y.  ``radius`` is R_k, the order's truncation radius.
    Orders 0-2 sum one lattice cut at R_min(k, 2); orders 3 and 4 sum each
    class's own points at R_k, dropped once its rows are built."""

    def __init__(self, tau: np.ndarray, tol: float = DEFAULT_TOL, order: int = 4):
        self.tau = tau = np.ascontiguousarray(tau, dtype=complex)  # .imag: a float view
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"ThetaEngine.tol must be finite and > 0, got {tol}")
        try:
            chol = _factor(tau)[0]
        except np.linalg.LinAlgError:
            raise ValueError("Im tau must be positive definite") from None
        if tau.real.any():
            raise ValueError("Re tau must be 0: the engine sums tau = i Y (real branch points)")
        self.tol = tol
        self.g = tau.shape[0]
        self.order = order
        check_genus(self.g)
        # R_k first: the benchmark's tracer keeps the first radius per tau
        self.radius = truncation_radius(tau, tol, order=order)
        self._chol = chol
        if order > 2:
            # |p_i| <= 2R sqrt(((pi Im tau)^{-1})_ii) + 1 must fit int16 at R_k
            # before the lattice is enumerated, which checks its own radius
            _point_dtype(chol, 2 * self.radius)
        # the radius grows with the order, so R_2 serves orders 0, 1 and 2
        self._lattice_radius = truncation_radius(tau, tol, order=2) if order > 2 else self.radius
        # (N, g) int8 or int16 points p = 2q, key-sorted, the (4^g + 1,) key starts and the weights
        p, self._starts = _ellipsoid_points(chol, 2 * self._lattice_radius)
        self._p, self._m = p, self._weights(p)
        self._enumerated = len(p)
        self._stores: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # order -> (T, built)

    @property
    def points(self) -> int:
        """Lattice points enumerated: the lattice's (one of each pair q, -q, and
        the origin) and those of each class built for an order above 2, once
        per class and order."""
        return self._enumerated

    def _weights(self, p: np.ndarray) -> np.ndarray:
        """m = exp(-pi q^t Y q) of the points p = 2q, in blocks of _BLOCK points."""
        y = self.tau.imag
        m = np.empty(len(p))
        for lo in range(0, len(p), _BLOCK):
            q = 0.5 * p[lo : lo + _BLOCK]
            m[lo : lo + _BLOCK] = np.exp(-np.pi * np.einsum("ij,ij->i", q @ y, q))
        return m

    def _lattice_class(self, eps_prime: int, order: int = 0) -> _LatticeClass:
        """The class of eps' (g bits, first entry most significant) that the
        order-k sums read: a view into the lattice, or, for k > 2, its own
        points at R_k, enumerated here and kept by no one."""
        if order > 2:
            p, starts = _ellipsoid_points(self._chol, 2 * self.radius, eps_prime)
            return _LatticeClass(p, self._weights(p), starts)
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
        """Fill the store rows of the classes eps_prime with one batched
        transform.  Order 0 fills every class, from one segmented sum over
        the key-sorted weights."""
        g = self.g
        table, built = self._stores[order]
        if order == 0:
            eps_prime, starts = np.arange(2**g), self._starts
            bins = np.zeros(4**g)
            filled = np.flatnonzero(np.diff(starts))
            bins[filled] = np.add.reduceat(self._m, starts[filled])
        else:
            bins = np.stack([self._class_bins(e, order) for e in eps_prime.tolist()])
        # T[e, eps] goes to row eps << g | eps'
        table.reshape(2**g, 2**g, -1)[:, eps_prime] = self._transform(
            bins.reshape(len(eps_prime), 2**g, -1), eps_prime, order).swapaxes(0, 1)
        built[eps_prime] = True

    def _class_bins(self, eps_prime: int, order: int) -> np.ndarray:
        """The bins of the class eps' at an order >= 1.  Past order 2 the
        class's own points are counted in ``points`` here, where its store
        rows are built, and dropped on return."""
        cls = self._lattice_class(eps_prime, order)
        if order > 2:
            self._enumerated += len(cls.p)
        return self._bins(cls, order)

    def _bins(self, cls: _LatticeClass, order: int) -> np.ndarray:
        """bins[b, j], the sum over parity bin b of the class of m times the
        j-th sorted monomial of degree order >= 1.  The products m q_c1 ...
        are formed per chunk of bins of about 4 * _BLOCK entries, and each bin
        takes q^t @ rest on its own rows, so no bit depends on the chunks."""
        tail, pick, _ = _layout(self.g, order)
        bins = np.zeros((2**self.g, len(pick)))
        if order == 1:
            filled = np.flatnonzero(np.diff(cls.starts))
            bins[filled] = np.add.reduceat(cls.m[:, None] * cls.p, cls.starts[filled])
            return 0.5 * bins  # q = p / 2, and halving is exact
        q, starts = 0.5 * cls.p, cls.starts.tolist()
        per = 4 * _BLOCK // len(tail)  # points per chunk, or one larger bin
        b = 0
        while b < 2**self.g:
            end = b + 1  # the chunk: bins b..end-1, at least one
            while end < 2**self.g and starts[end + 1] - starts[b] <= per:
                end += 1
            first = starts[b]
            rest = cls.m[first : starts[end], None]
            for c in tail.T:
                rest = rest * q[first : starts[end], c]
            for k in range(b, end):
                lo, hi = starts[k], starts[k + 1]
                bins[k] = (q[lo:hi].T @ rest[lo - first : hi - first]).ravel()[pick]
            b = end
        return bins

    def values(self, chars: np.ndarray, order: int) -> np.ndarray:
        """Order-k derivative tensors at 0 of theta[c] for an int array of
        characteristic bits c = eps << g | eps' (``HalfCharacteristic.bits``),
        shape chars.shape + (g,)*k: the constants for k = 0, the gradients for
        k = 1.  A class is built the first time one of its rows is read."""
        self._check_order(order)
        g = self.g
        if order not in self._stores:
            self._stores[order] = (np.empty((4**g, math.comb(g + order - 1, order)), dtype=complex),
                                   np.zeros(2**g, dtype=bool))
        table, built = self._stores[order]
        chars = np.asarray(chars)
        if not built.all():
            new = np.zeros(2**g, dtype=bool)
            new[chars & (1 << g) - 1] = True
            new = np.flatnonzero(new & ~built)
            if len(new):
                self._build(order, new)
        # a C-contiguous gather, as the families' sums expect
        out = (table[:, 0] if order == 0 else table)[chars]
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
        """All order-m partial derivatives of theta[char] at v = 0, and their
        scale (2 pi)^m max |m| max_i |q_i|^m over the points of the class
        that order sums, computed here.
        No run calls it: it is a traced entry point of the benchmark
        (bench/layers.py), which reads ``order`` by name for its
        ``theta.deriv.calls.o1``..``o3`` counters and times it as
        ``theta.deriv.self_s``; :meth:`CurveContext.deriv` calls it."""
        self._check(char)
        entries = np.asarray(self.values(char.bits, order))  # shape () at order 0
        cls = self._lattice_class(char.bits & ((1 << self.g) - 1), order)
        size = np.max(cls.m * np.abs(0.5 * cls.p).max(axis=1) ** order, initial=0.0)
        return DerivThetaTensor(char, order, entries, float((2 * np.pi) ** order * size))

    def _check(self, char: HalfCharacteristic) -> None:
        if char.genus != self.g:
            raise ValueError("characteristic genus mismatch")

    def _check_order(self, order: int) -> None:
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > self.order:
            raise ValueError(f"derivative order {order} is above the engine's order {self.order}: "
                             f"the order-{self.order} lattice radius cuts its tail short")
