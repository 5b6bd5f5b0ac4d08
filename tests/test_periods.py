import time

import numpy as np
import pytest

from oracles import differential_row, gauss_legendre_exact, ref_branch, segment_integrals_loop
from thomae_lab import periods as periods_module
from thomae_lab.characteristics import _table
from thomae_lab.curve import validate_curve
from thomae_lab.harness import SuiteConfig, random_curve, run_suite
from thomae_lab.periods import (
    _gauss_legendre,
    _segment_integrals,
    abel_images,
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


def test_tau_is_solved_once(curve, monkeypatch):
    p = compute_periods(curve(3))
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    assert p.tau is p.tau and not p.tau.flags.writeable
    assert solves == []  # compute_periods already solved it for _check_tau


def test_every_tau_of_a_real_curve_is_imaginary(sweep_curves):
    # real branch points give tau = i Y exactly, which the theta engine's real
    # weights take for granted (it refuses Re tau != 0)
    specs = sweep_curves + [random_curve(g, s) for g in range(2, 9) for s in (1, 2, 3)]
    for spec in specs:
        assert not compute_periods(spec).tau.real.any(), spec.label


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
    assert halfperiod_residual(c.periods, v, _table(2)[0][3]) < 1e-12


def test_halfperiod_residual_lattice_shift(ctx):
    c = ctx(2)
    tau = c.periods.tau
    v = _half_period(tau, 2, 4)
    v = v + tau[:, 0] + np.array([1.0, 0.0])
    assert halfperiod_residual(c.periods, v, _table(2)[0][4]) < 1e-12


def test_halfperiod_residual_detects_wrong_char(ctx):
    c = ctx(2)
    v = abel_images(c.spec, c.periods)[:, 0]
    assert halfperiod_residual(c.periods, v, _table(2)[0][2]) > 1e-3


def test_abel_branch_points_match_characteristic_table(ctx):
    # the decisive cross-check of sheet and homology conventions, on the
    # test curve and three random curves of each genus
    for g in range(2, 7):
        specs = [ctx(g).spec] + [random_curve(g, seed) for seed in (1, 2, 3)]
        for spec in specs:
            res = branch_point_char_residuals(spec, compute_periods(spec))
            assert sorted(res) == list(range(1, 2 * g + 2))
            assert max(res.values()) < 1e-8, (spec.label, res)


def test_abel_half_period_doubling(ctx):
    # 2 A(e_k) is a lattice point
    c = ctx(2)
    images = abel_images(c.spec, c.periods)
    for k in (1, 3, 5):
        assert halfperiod_residual(c.periods, 2.0 * images[:, k - 1], 0) < 1e-8


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


def test_gap_curve_segments_against_mpmath():
    # the two segments beside the 1e-6 gap must measure the branch point
    # past each end from that end: x - e_j loses the gap to rounding in x
    mp = pytest.importorskip("mpmath").mp
    spec = validate_curve(3, GAP_CURVE)
    order = compute_periods(spec).quad_order
    got = _segment_integrals(spec, order)
    with mp.workdps(30):
        e = [mp.mpf(x) for x in GAP_CURVE]
        ends = [-mp.pi / 2, -mp.pi / 2 + 0.01, -mp.pi / 2 + 0.1, 0,
                mp.pi / 2 - 0.1, mp.pi / 2 - 0.01, mp.pi / 2]
        for l in range(6):
            mid, h = (e[l] + e[l + 1]) / 2, (e[l + 1] - e[l]) / 2

            def integrand(theta, power):  # over |f(x)| without the segment's end factors
                x = mid + h * mp.sin(theta)
                rest = mp.fprod(abs(x - e[j]) for j in range(7) if j not in (l, l + 1))
                return x**power / mp.sqrt(rest)

            want = [float(mp.quad(lambda t: integrand(t, 3 - n), ends)) for n in (1, 2, 3)]
            assert np.max(np.abs(got[l] - want)) <= 1e-13 * np.max(np.abs(want)), (order, l)


def test_gap_curve_has_no_gradient_failure():
    # GRAD2 and GRAD3 are sensitive enough to fail on the 1e-12 period
    # errors that x - e_j leaves beside the gap
    report = run_suite(SuiteConfig(spec=validate_curve(3, GAP_CURVE), seed=1))
    assert report.periods["quad_order"] == 768 and report.periods["est_error"] <= 2e-13
    gradients = [r for r in report.records if r.relation_id in ("GRAD2", "GRAD3")]
    assert len(gradients) > 100 and all(r.passed for r in gradients)


def test_a_1e_8_gap_converges_where_1e_10_does_not():
    # the end-measured distances bring a 1e-8 gap within refine_tol by order
    # 3072; a 1e-10 gap still needs a graded rule
    close = [*GAP_CURVE[:5], 1.5 + 1e-8, 3.0]
    assert compute_periods(validate_curve(3, close)).quad_order == 3072
    close[5] = 1.5 + 1e-10
    with pytest.raises(ValueError, match="did not converge"):
        compute_periods(validate_curve(3, close))


def test_no_rule_past_max_order_is_built(monkeypatch):
    # a base whose double passes max_order is refused, and doubling stops
    # before it would pass max_order: a base of 1000 on the 1e-8 gap curve
    # stops at 2000, short of a 4000-node rule
    spec = validate_curve(3, GAP_CURVE)
    with pytest.raises(ValueError, match=r"quad_order 3072 doubles past max_order 3072"):
        compute_periods(spec, 3072)
    built = []
    columns = periods_module._segment_columns
    monkeypatch.setattr(periods_module, "_segment_columns",
                        lambda s, order: built.append(order) or columns(s, order))
    close = validate_curve(3, [*GAP_CURVE[:5], 1.5 + 1e-8, 3.0])
    with pytest.raises(ValueError, match=r"did not converge: .* at quad_order 2000 "
                       r"\(max_order 3072\)"):
        compute_periods(close, 1000)
    assert built == [1000, 2000]


def test_unconverged_quadrature_raises():
    spec = validate_curve(3, GAP_CURVE)
    with pytest.raises(ValueError, match=r"period quadrature did not converge: est_error "
                       r"\S+ > refine_tol 1\.0e-11 at quad_order 192 \(max_order 192\)"):
        compute_periods(spec, 96, max_order=192)
