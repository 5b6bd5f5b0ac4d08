import time

import numpy as np
import pytest

from oracles import differential_row, gauss_legendre_exact, ref_branch, segment_integrals_loop
from thomae_lab.characteristics import _table
from thomae_lab.curve import validate_curve
from thomae_lab.periods import (
    _gauss_legendre,
    _segment_integrals,
    abel_branch_point,
    branch_point_char_residuals,
    compute_periods,
    halfperiod_residual,
)

# genus 3 with two branch points 1e-6 apart (a narrow gap between cuts)
GAP_CURVE = [-4.0, -2.5, -1.0, 0.0, 1.5, 1.500001, 3.0]


def test_differential_row_imaginary_on_negative_f(curve):
    # g=1, x=0.5: f = (x+1) x (x-1) < 0, so the value is purely imaginary
    spec = curve(1)
    v = differential_row(spec, 1, 0.5)
    assert abs(v.real) < 1e-15 * abs(v)


def test_differential_row_parity_rule(curve):
    # between e_4 and e_5 one branch point lies to the right: imaginary
    spec = curve(2)
    v = differential_row(spec, 1, 4.5)
    assert abs(v.real) < 1e-15 * abs(v)
    # between e_3 and e_4 two branch points to the right: real
    v = differential_row(spec, 2, 3.5)
    assert abs(v.imag) < 1e-15 * abs(v)


def test_differential_row_singular_at_branch_point(curve):
    with pytest.raises(ValueError, match="singular at branch point"):
        differential_row(curve(2), 2, 3.0)


def test_g1_period_against_mpmath_oracle(curve):
    # |omega| = 2 int_{-1}^{0} dx / (2 sqrt|f|); the oracle is 200-digit
    # adaptive quadrature of the same segment integral
    mp = pytest.importorskip("mpmath")
    spec = curve(1)
    p = compute_periods(spec, 32)
    with mp.workdps(200):
        oracle = mp.quad(lambda x: 1 / mp.sqrt(abs((x + 1) * x * (x - 1))), [-1, 0])
    assert abs(abs(p.omega[0, 0]) - float(oracle)) < 1e-10


def test_tau_invariants(ctx):
    for g in (2, 3, 4):
        tau = ctx(g).periods.tau
        assert np.max(np.abs(tau - tau.T)) < 1e-9 * np.max(np.abs(tau))
        assert np.min(np.linalg.eigvalsh(tau.imag)) > 0


def test_order_doubling_stability(curve):
    spec = curve(2)
    p1 = compute_periods(spec, 48)
    p2 = compute_periods(spec, 96)
    scale = np.max(np.abs(p2.tau))
    assert np.max(np.abs(p1.tau - p2.tau)) < 1e-10 * scale
    assert p1.est_error < 1e-10


def _half_period(tau, g, k):
    """eps/2 + tau eps'/2 for [eps_k], from the tuple reference table."""
    eps, eps_prime = ref_branch(g, k)
    return 0.5 * np.asarray(eps, float) + tau @ (0.5 * np.asarray(eps_prime, float))


def test_halfperiod_residual_exact_target(ctx):
    c = ctx(2)
    v = _half_period(c.periods.tau, 2, 3)
    assert halfperiod_residual(c.periods, v, _table(2)[0][3]).norm < 1e-12


def test_halfperiod_residual_lattice_shift(ctx):
    c = ctx(2)
    tau = c.periods.tau
    v = _half_period(tau, 2, 4)
    v = v + tau[:, 0] + np.array([1.0, 0.0])
    assert halfperiod_residual(c.periods, v, _table(2)[0][4]).norm < 1e-12


def test_halfperiod_residual_detects_wrong_char(ctx):
    c = ctx(2)
    v = abel_branch_point(c.spec, c.periods, 1)
    assert halfperiod_residual(c.periods, v, _table(2)[0][2]).norm > 1e-3


def test_abel_branch_points_match_characteristic_table(ctx):
    # the decisive cross-check of sheet and homology conventions
    for g in (2, 3, 4):
        c = ctx(g)
        res = branch_point_char_residuals(c.spec, c.periods)
        assert max(res.values()) < 1e-8, res


def test_abel_half_period_doubling(ctx):
    # 2 A(e_k) is a lattice point
    c = ctx(2)
    for k in (1, 3, 5):
        v = 2.0 * abel_branch_point(c.spec, c.periods, k)
        assert halfperiod_residual(c.periods, v, 0).norm < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 5, 96, 97, 192, 768])
def test_gauss_legendre_rule_against_a_40_digit_rule(n):
    mp = pytest.importorskip("mpmath").mp
    ref_nodes, ref_weights = gauss_legendre_exact(n)
    nodes, weights = _gauss_legendre(n)
    assert len(nodes) == len(weights) == n and np.all(np.diff(nodes) > 0)
    with mp.workdps(40):
        node_err = max(abs(mp.mpf(float(a)) - b) for a, b in zip(nodes, ref_nodes))
        weight_err = max(abs(mp.mpf(float(a)) - b) / b for a, b in zip(weights, ref_weights))
    assert node_err <= 2.3e-16, node_err
    assert weight_err <= 1e-11, weight_err


@pytest.mark.parametrize("degree", [1, 6])
def test_exact_rule_oracle_matches_mpmath_gauss_legendre(degree):
    # mpmath's own rule, at the sizes it has (3 * 2^(degree - 1) nodes)
    mp = pytest.importorskip("mpmath").mp
    from mpmath.calculus.quadrature import GaussLegendre

    ref_nodes, ref_weights = gauss_legendre_exact(3 * 2 ** (degree - 1))
    with mp.workdps(40):
        rule = sorted(GaussLegendre(mp).calc_nodes(degree, mp.prec))
        assert max(abs(x - a) for (x, _), a in zip(rule, ref_nodes)) < mp.mpf(10) ** -38
        assert max(abs(w - b) for (_, w), b in zip(rule, ref_weights)) < mp.mpf(10) ** -38


def test_gauss_legendre_3072_is_quick():
    start = time.perf_counter()
    _gauss_legendre.__wrapped__(3072)  # bypass the cache
    assert time.perf_counter() - start < 0.5


def test_segment_integrals_match_the_per_segment_loop(sweep_curves):
    assert len(sweep_curves) == 300
    for order in (96, 192, 384, 768):
        nodes, weights = _gauss_legendre(order)
        for spec in sweep_curves:
            ref = segment_integrals_loop(spec, nodes, weights)
            got = _segment_integrals(spec, order)
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.max(np.abs(got - ref) / scale) <= 1e-14, (order, spec.branch_points)


def test_gap_curve_higher_order_is_no_worse():
    # the rule's own weight error once grew with the order and made a
    # higher starting order end less converged
    spec = validate_curve(3, GAP_CURVE)
    low, high = compute_periods(spec, 96), compute_periods(spec, 1536)
    assert high.est_error <= low.est_error
    assert high.quad_order == 3072 and high.est_error <= 1e-11


def test_unconverged_quadrature_raises():
    spec = validate_curve(3, GAP_CURVE)
    with pytest.raises(ValueError, match=r"period quadrature did not converge: est_error "
                       r"\S+ > refine_tol 1\.0e-11 at quad_order 192 \(max_order 192\)"):
        compute_periods(spec, 96, max_order=192)
