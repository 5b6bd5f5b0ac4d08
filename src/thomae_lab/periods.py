"""First-kind period matrices over Baker's homology basis, by real quadrature.

The curve y^2 = f(x) = prod (x - e_j) with sorted real branch points is cut
along (e_{2k-1}, e_{2k}), k = 1..g, and (e_{2g+1}, inf).  The a_k cycle
encircles the k-th cut; the b_k cycle joins the k-th cut to the cut reaching
infinity.  With the sheet fixed by

    y(x) = i^p sqrt|f(x)|,   p = #{branch points > x},

the holomorphic differentials du_n = x^{g-n} dx / (-2y) are integrated over
the inter-branch-point segments by Gauss-Legendre quadrature after the
substitution x = m + h sin(theta), which removes both inverse-square-root
endpoint singularities analytically.  The period columns are assembled as

    omega[:, k]  = 2 * (integral over cut k),
    omega'[:, k] = 2 * sum_{l >= k} (integral over gap l),

gap l being the segment (e_{2l}, e_{2l+1}) between consecutive cuts.  The
resulting tau = omega^{-1} omega' is symmetric with positive-definite
imaginary part, which every run asserts (``_check_tau``).  The Abel images
of the branch points land on the half-periods of the standard
characteristic table: :func:`abel_images` gives all 2g+1 of them from one
quadrature pass, and :func:`branch_point_char_residuals` reduces each by
rounding its lattice coordinates.  Only the tests call them; they are kept
as the cross-check that ROADMAP item 4(c) would report per curve.

The Gauss-Legendre rule is built by Halley's variant of Newton's method
on the Legendre recurrence, O(n^2) per order and cached, with weights
accurate to about 1e-12 relative up to n = 1536 (an eigensolve of the
Jacobi matrix is O(n^3), and its weights lose accuracy as n grows).  All 2g
segments are integrated as one (2g, n) array.  ``compute_periods`` doubles the order until two successive orders
agree to ``refine_tol``, never past ``max_order``; a curve that has not
converged by then, or a starting order whose double passes ``max_order``,
raises ValueError rather than return unconverged periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .characteristics import _table
from .curve import CurveSpec


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and n (P_{n-1}(x) - x P_n(x)) = (1 - x^2) P_n'(x), by the
    three-term recurrence k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}."""
    prev, cur, new = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(2, n + 1):
        np.multiply(x, 2 * k - 1, out=new)
        new *= cur
        prev *= k - 1
        new -= prev
        new /= k
        prev, cur, new = cur, new, prev
    return cur, n * (prev - x * cur)


@lru_cache(maxsize=32)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Gauss-Legendre nodes and their weights on [-1, 1].

    Newton's method, in Halley's form, on P_n(cos t) in the angle t, from
    Tricomi's guesses x_k = (1 - (n - 1) / (8 n^3)) cos((4k - 1) pi / (4n + 2)),
    with P_n by its recurrence: two O(n^2) passes where the Jacobi-matrix
    eigensolve is O(n^3) (Hale & Townsend, SIAM J. Sci. Comput. 2013).  The
    weight of the node cos t is 2 sin^2 t / (sin^2 t P_n'(cos t))^2.  The
    rule is symmetric: the iteration runs on the nodes in (0, 1), plus the
    node 0 of an odd order.
    """
    n, half = order, order // 2
    k = np.arange(1, half + 1)
    t = np.arccos((1 - (n - 1) / (8 * n**3)) * np.cos((4 * k - 1) * np.pi / (4 * n + 2)))
    t = np.append(t, [0.5 * np.pi] * (n % 2))
    for _ in range(10):
        x, s = np.cos(t), np.sin(t)
        x[half:] = 0.0
        p, d = _legendre(n, x)
        # cos t - x, which near x = 1 would limit t to |cos t - x| / sin t:
        # 1 - x is exact there, and 2 sin^2(t/2) = 1 - cos t is accurate
        low = np.where(x >= 0.5, (1 - x) - 2 * np.sin(0.5 * t) ** 2, 0.0)
        newton = p * s / d + low / s  # -f / f' for f(t) = P_n(cos t)
        # Halley's step, with f'' from Legendre's equation
        # f'' = -cot(t) f' - n (n + 1) f: cubic convergence
        step = newton / (1 + 0.5 * newton * (n * (n + 1) * newton - x / s))
        t += step
        if np.max(np.abs(step)) < 1e-10:  # the next step is below rounding
            break
    # d/dx (1 - x^2) P_n' = -n (n + 1) P_n vanishes at a node, so the last
    # d serves the stepped node to O(n^2 step^2)
    x, s = np.cos(t), np.sin(t)
    x[half:] = 0.0
    w = 2 * s**2 / d**2
    nodes = np.concatenate([-x, x[::-1][n % 2:]])
    weights = np.concatenate([w, w[::-1][n % 2:]])
    return nodes, weights


@lru_cache(maxsize=32)
def _end_offset(order: int) -> np.ndarray:
    """(e_{l+1} - x) / h = 2 sin^2(pi (1 - t) / 4) at the nodes t; reversed, (x - e_l) / h."""
    return 2.0 * np.sin(0.25 * np.pi * (1.0 - _gauss_legendre(order)[0])) ** 2


def _segment_integrals(spec: CurveSpec, order: int) -> np.ndarray:
    """V[l-1, n-1] = int_{e_l}^{e_{l+1}} x^{g-n} dx / sqrt|f(x)|, l = 1..2g.

    Gauss-Legendre after x = m + h sin(theta) on all 2g segments at once,
    one row per segment; the endpoint roots of f cancel against the
    cos(theta) Jacobian, leaving a smooth integrand.
    """
    g = spec.genus
    e = np.asarray(spec.branch_points)
    nodes, weights = _gauss_legendre(order)
    right = _end_offset(order)
    m, h = 0.5 * (e[1:] + e[:-1]), 0.5 * (e[1:] - e[:-1])
    x = m[:, None] + h[:, None] * np.sin(0.5 * np.pi * nodes)
    # |f| without each row's endpoint factors (set to 1); a close pair keeps its digits, as
    # the branch point past each end is measured from it: (e_{l+2} - e_{l+1}) + (e_{l+1} - x)
    rest = np.ones_like(x)
    for j in range(2 * g + 1):
        factor = np.abs(x - e[j])
        factor[max(j - 2, 0) : j + 2] = 1.0  # the segments ending at e_j and their neighbours
        rest *= factor
    rest[:-1] *= 2 * h[1:, None] + h[:-1, None] * right
    rest[1:] *= 2 * h[:-1, None] + h[1:, None] * right[::-1]
    core = (0.5 * np.pi) * weights / np.sqrt(rest)
    powers = np.empty((2 * g, g, order))  # powers[:, n - 1] = x^{g-n}
    powers[:, g - 1] = 1.0
    for n in range(g - 1, 0, -1):
        powers[:, n - 1] = powers[:, n] * x
    return (powers @ core[:, :, None])[:, :, 0]


def _segment_columns(spec: CurveSpec, order: int) -> np.ndarray:
    """(g, 2g) sheet-signed segment integrals of du: column l - 1 is the
    integral over segment l, so the even columns are the cuts and the odd
    ones the gaps."""
    g = spec.genus
    # segment l has p = 2g + 1 - l branch points above it
    coeff = np.array([-0.5 * (-1j) ** (p % 4) for p in range(2 * g, 0, -1)])
    return (coeff[:, None] * _segment_integrals(spec, order)).T


def _assemble(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(omega, omega') from the segment columns."""
    cuts, gaps = cols[:, 0::2], cols[:, 1::2]  # column k: cut k, gap k
    return 2.0 * cuts, 2.0 * np.cumsum(gaps[:, ::-1], axis=1)[:, ::-1]


@dataclass
class PeriodData:
    """Non-normalized periods omega, omega' and tau = omega^{-1} omega'."""

    omega: np.ndarray
    omega_prime: np.ndarray
    quad_order: int
    est_error: float

    @cached_property
    def tau(self) -> np.ndarray:
        """Solved once and read-only: a run reads it in ``_check_tau``, in
        the engine and in each half-period residual."""
        tau = np.linalg.solve(self.omega, self.omega_prime)
        tau.flags.writeable = False
        return tau


def _check_tau(tau: np.ndarray) -> None:
    scale = np.max(np.abs(tau))
    asym = np.max(np.abs(tau - tau.T))
    if asym > 1e-9 * scale:
        raise ValueError(
            "homology sign bookkeeping failure: tau not symmetric "
            f"(max asymmetry {asym:.3e}, scale {scale:.3e});\ntau =\n{tau}"
        )
    eig = np.linalg.eigvalsh(tau.imag)
    if np.min(eig) <= 0:
        raise ValueError(
            "homology sign bookkeeping failure: Im tau not positive definite "
            f"(eigenvalues {eig});\ntau =\n{tau}"
        )


def compute_periods(
    spec: CurveSpec,
    quad_order: int = 96,
    refine_tol: float = 1e-11,
    max_order: int = 3072,
) -> PeriodData:
    """Compute (omega, omega', tau) with order-doubling error control.

    est_error is the largest entrywise relative change of omega and omega'
    between quad_order and 2*quad_order; the order is doubled until it drops
    below refine_tol.  No rule past max_order is built: a base with
    2*quad_order > max_order raises ValueError, and so does a curve whose
    estimate is still above refine_tol when the next doubling would pass
    max_order.  The benchmark (bench/layers.py) wraps it where ``harness``
    imports it and reads ``quad_order`` and ``refine_tol`` by name for its
    ``periods.*`` metrics.
    """
    if 2 * quad_order > max_order:
        raise ValueError(f"quad_order {quad_order} doubles past max_order {max_order}: "
                         f"the base may be at most {max_order // 2}")
    order = quad_order
    o1 = _assemble(_segment_columns(spec, order))
    while True:
        o2 = _assemble(_segment_columns(spec, 2 * order))
        scale = max(np.max(np.abs(o2[0])), np.max(np.abs(o2[1])))
        est = max(np.max(np.abs(o1[0] - o2[0])), np.max(np.abs(o1[1] - o2[1]))) / scale
        if est <= refine_tol or 4 * order > max_order:
            break
        order *= 2
        o1 = o2
    if not est <= refine_tol:
        raise ValueError(
            f"period quadrature did not converge: est_error {est:.3e} > refine_tol "
            f"{refine_tol:.1e} at quad_order {2 * order} (max_order {max_order})"
        )
    data = PeriodData(*o2, quad_order=2 * order, est_error=float(est))
    _check_tau(data.tau)
    return data


def abel_images(spec: CurveSpec, periods: PeriodData) -> np.ndarray:
    """Abel images A(e_k) = int_inf^{(e_k, 0)} dv, k = 1..2g+1, as the
    columns of a (g, 2g+1) array, all from one quadrature pass.

    The segments are integrated afresh at an order unrelated to the one of
    the periods, so that the characteristic cross-check also validates
    quadrature convergence.  A(e_{2g+1}) = -sum_k (cut_k integral), and
    A(e_k) subtracts every segment integral from e_k to e_{2g+1}: a reverse
    cumulative sum of the segment columns.
    """
    cols = _segment_columns(spec, periods.quad_order + 17)
    # column k - 1: the integral over the segments from e_k to e_{2g+1}
    rest = np.cumsum(np.pad(cols, ((0, 0), (0, 1)))[:, ::-1], axis=1)[:, ::-1]
    du = -np.sum(cols[:, 0::2], axis=1, keepdims=True) - rest
    return np.linalg.solve(periods.omega, du)


def halfperiod_residual(periods: PeriodData, v: np.ndarray, bits: int) -> float:
    """Distance of v from eps/2 + tau eps'/2 mod (1, tau)Z^{2g}, for the
    characteristic bits eps << g | eps', to the translate that rounding the
    real coordinates of w = alpha + tau beta gives: exact when v is near a
    translate, and never below the true distance when it is not."""
    tau = periods.tau
    g = len(tau)
    digits = bits >> np.arange(2 * g - 1, -1, -1) & 1  # eps, then eps'
    w = np.asarray(v, dtype=complex) - 0.5 * digits[:g] - tau @ (0.5 * digits[g:])
    m = np.round(np.linalg.solve(tau.imag, w.imag))
    n = np.round(w.real - tau.real @ m)
    return float(np.linalg.norm(w - n - tau @ m))


def branch_point_char_residuals(spec: CurveSpec, periods: PeriodData) -> dict[int, float]:
    """Cross-check: A(e_k) matches [eps_k] mod lattice, for every k."""
    branch = _table(spec.genus)[0]
    images = abel_images(spec, periods)
    return {k: halfperiod_residual(periods, images[:, k - 1], branch[k])
            for k in range(1, 2 * spec.genus + 2)}
