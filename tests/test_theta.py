from itertools import combinations_with_replacement, permutations, product

import mpmath
import numpy as np
import pytest

from oracles import char_from_string, char_tuples, enumerate_partitions, parity
from thomae_lab.characteristics import HalfCharacteristic, _char, char_of_set
from thomae_lab import theta as theta_module
from thomae_lab.context import CurveContext
from thomae_lab.harness import random_curve
from thomae_lab.periods import compute_periods
from thomae_lab.theta import MAX_GENUS, ThetaEngine, ThetaParams, truncation_radius


def box_class(engine: ThetaEngine, eps_prime: int) -> np.ndarray:
    """Reference class: every q = n + eps'/2 with ||L q|| <= R, L^t L = pi Im(tau),
    found in the plain box |n_i| <= R sqrt(((pi Im tau)^{-1})_ii) + 1."""
    g, tau, r = engine.g, engine.params.tau, engine.radius
    shift = 0.5 * np.array([(eps_prime >> (g - 1 - i)) & 1 for i in range(g)])
    bound = (r * np.sqrt(np.diag(np.linalg.inv(np.pi * tau.imag))) + 1).astype(int)
    n = np.stack(np.meshgrid(*[np.arange(-b, b + 1) for b in bound], indexing="ij"), -1)
    q = n.reshape(-1, g) + shift
    chol = np.linalg.cholesky(np.pi * tau.imag)
    return q[np.sum((q @ chol) ** 2, axis=1) <= r * r]


def check_half_class(engine: ThetaEngine, eps_prime: int) -> np.ndarray:
    """The engine's class and its mirror -q, the origin counted once, must be
    exactly the box class; returns the box class."""
    cls = engine._lattice_class(eps_prime)
    full = box_class(engine, eps_prime)
    half = {tuple(q) for q in (0.5 * cls.p).tolist()}
    mirror = {tuple(-x for x in q) for q in half}
    assert len(half) == len(cls.p)
    assert len(half & mirror) == (eps_prime == 0)  # only the origin is its own mirror
    assert half | mirror == {tuple(q) for q in full.tolist()}
    return full


def per_character_deriv(tau: np.ndarray, q: np.ndarray, char: HalfCharacteristic, order: int):
    """Reference: one lattice sum over the full class q per characteristic and
    sorted multi-index, with the phase exp(i pi q.eps) evaluated per point.
    Returns (entries, scale)."""
    g = tau.shape[0]
    m = np.exp(1j * np.pi * np.einsum("ij,jk,ik->i", q, tau, q))
    weighted = m * np.exp(1j * np.pi * (q @ np.asarray(char_tuples(char)[0], dtype=float)))
    entries = np.zeros((g,) * order, dtype=complex)
    scale = 0.0
    pref = (2j * np.pi) ** order
    for idx in combinations_with_replacement(range(g), order):
        terms = np.prod(q[:, list(idx)], axis=1) * weighted
        scale = max(scale, abs(pref) * float(np.max(np.abs(terms), initial=0.0)))
        for perm in set(permutations(idx)):
            entries[perm] = pref * np.sum(terms)
    return entries, scale


def _check_against_reference(engine, chars, orders):
    classes = {}
    for char in chars:
        eps_prime = char.bits & ((1 << engine.g) - 1)
        if eps_prime not in classes:
            classes[eps_prime] = check_half_class(engine, eps_prime)
        for order in orders:
            t = engine.theta_deriv(char, order)
            ref, scale = per_character_deriv(engine.params.tau, classes[eps_prime], char, order)
            assert t.entries.shape == (engine.g,) * order
            assert abs(t.scale - scale) <= 1e-12 * scale, (char, order)
            assert np.max(np.abs(t.entries - ref), initial=0.0) <= 1e-13 * scale, (char, order)
        assert abs(engine.theta(char) - complex(engine.theta_deriv(char, 0).entries)) == 0.0


@pytest.mark.parametrize("g", [1, 2, 3])
def test_kernel_matches_per_character_sums_all_chars(ctx, g):
    eng = ThetaEngine(ctx(g).periods.tau)
    _check_against_reference(eng, [_char(g, bits) for bits in range(4 ** g)], range(4))


def test_kernel_matches_per_character_sums_g5_sample(ctx):
    eng = ThetaEngine(ctx(5).periods.tau)
    rng = np.random.default_rng(5)
    bits = [0, 4 ** 5 - 1, *rng.choice(4 ** 5, size=10, replace=False).tolist()]
    _check_against_reference(eng, [_char(5, int(b)) for b in bits], range(4))


_ORACLE_TAU = {
    2: [[0.30 + 1.10j, 0.20 + 0.35j], [0.20 + 0.35j, -0.40 + 0.90j]],
    3: [[0.10 + 1.20j, 0.25 + 0.30j, -0.15 + 0.10j],
        [0.25 + 0.30j, -0.35 + 1.00j, 0.05 + 0.25j],
        [-0.15 + 0.10j, 0.05 + 0.25j, 0.45 + 0.95j]],
}


def _mp_theta_and_gradient(tau, char, box, v=None):
    """theta[char](v) and its gradient by a plain box sum |n_i| <= box at
    30 digits, independent of the engine's ellipsoid, parity bins and
    q <-> -q pairing; v (complex) defaults to 0."""
    g = len(tau)
    tau = [[mpmath.mpc(z.real, z.imag) for z in row] for row in tau]
    v = [0] * g if v is None else [mpmath.mpc(z.real, z.imag) for z in v]
    char_eps, char_eps_prime = char_tuples(char)
    eps = [mpmath.mpf(e) / 2 + z for e, z in zip(char_eps, v)]
    value, grad = mpmath.mpc(0), [mpmath.mpc(0)] * g
    for n in product(range(-box, box + 1), repeat=g):
        q = [n[i] + mpmath.mpf(char_eps_prime[i]) / 2 for i in range(g)]
        quad = sum((2 - (i == j)) * q[i] * q[j] * tau[i][j] for i in range(g) for j in range(i, g))
        term = mpmath.exp(1j * mpmath.pi * quad + 2j * mpmath.pi * sum(a * b for a, b in zip(q, eps)))
        value += term
        grad = [grad[i] + 2j * mpmath.pi * q[i] * term for i in range(g)]
    return complex(value), np.array([complex(x) for x in grad])


@pytest.mark.parametrize("g", [2, 3])
def test_theta_against_mpmath_box_sum(g):
    tau = np.array(_ORACLE_TAU[g])
    eng = ThetaEngine(tau)
    # every omitted term has |term| <= exp(-pi lam_min (box + 1/2)^2) < 1e-24
    lam_min = float(np.min(np.linalg.eigvalsh(tau.imag)))
    box = int(np.ceil(np.sqrt(24 * np.log(10) / (np.pi * lam_min))))
    chars = [_char(g, 0), _char(g, 1), _char(g, (1 << g) | 1), _char(g, 4 ** g - 1),
             _char(g, 0b10 << g | 0b01)]
    with mpmath.workdps(30):
        for char in chars:
            value, grad = _mp_theta_and_gradient(tau, char, box)
            assert abs(eng.theta(char) - value) <= 1e-12, char
            assert np.max(np.abs(eng.theta_deriv(char, 1).entries - grad)) <= 1e-12, char


@pytest.mark.parametrize("g", [2, 3])
def test_theta_at_complex_v_against_mpmath_box_sum(g):
    tau = np.array(_ORACLE_TAU[g])
    eng = ThetaEngine(tau)
    rng = np.random.default_rng(g)
    v = rng.uniform(-0.5, 0.5, size=g) + 1j * rng.uniform(-0.1, 0.1, size=g)
    # |Im v_i| <= 0.1 scales a term by at most exp(0.2 pi sqrt(g) |q|); every
    # omitted term has |q| >= box + 1/2, so |term| < 1e-30 still
    lam_min = float(np.min(np.linalg.eigvalsh(tau.imag)))
    box = int(np.ceil(np.sqrt(24 * np.log(10) / (np.pi * lam_min))))
    # eps' = 0 (the origin is its own mirror) and eps' != 0, even and odd
    chars = [_char(g, 0), _char(g, 0b11 << g), _char(g, 1), _char(g, 4 ** g - 1),
             _char(g, 0b10 << g | 0b01)]
    with mpmath.workdps(30):
        for char in chars:
            value, _ = _mp_theta_and_gradient(tau, char, box, v)
            assert abs(eng.theta(char, v) - value) <= 1e-12, char


def test_g1_value_against_brute_force():
    # tau = i, zero characteristic: direct 401-term sum is the oracle
    eng = ThetaEngine(np.array([[1j]]))
    val = eng.theta(_char(1, 0))
    oracle = sum(np.exp(1j * np.pi * n * n * 1j) for n in range(-200, 201))
    assert abs(val - oracle) < 1e-14


def test_g1_shifted_char_against_brute_force():
    tau = np.array([[0.3 + 0.8j]])
    eng = ThetaEngine(tau)
    c = char_from_string("[1/1]")
    v = np.array([0.21 - 0.05j])
    oracle = sum(
        np.exp(1j * np.pi * (n + 0.5) ** 2 * tau[0, 0] + 2j * np.pi * (n + 0.5) * (v[0] + 0.5))
        for n in range(-200, 201)
    )
    assert abs(eng.theta(c, v) - oracle) < 1e-13


def test_char_shift_identity_g2(ctx):
    # independent route: theta[eps](0) = exp(i pi (eps'/2) tau (eps'/2)
    #   + 2 i pi (eps/2) . (eps'/2)) * theta(eps/2 + tau eps'/2) with the
    # plain zero-characteristic series at a shifted argument
    c = ctx(2)
    tau = c.periods.tau
    eng = c.engine
    for char in [char_from_string("[01/10]"), char_from_string("[10/11]"),
                 char_from_string("[11/01]")]:
        eps, epsp = (np.asarray(t, float) for t in char_tuples(char))
        z0 = 0.5 * eps + tau @ (0.5 * epsp)
        pref = np.exp(
            1j * np.pi * (0.5 * epsp) @ tau @ (0.5 * epsp)
            + 2j * np.pi * (0.5 * eps) @ (0.5 * epsp)
        )
        direct = pref * eng.theta(_char(2, 0), z0)
        assert abs(eng.theta(char) - direct) < 1e-11, char


def test_odd_char_vanishes_at_zero():
    eng = ThetaEngine(np.array([[1j]]))
    c = char_from_string("[1/1]")
    assert parity(c) == "odd"
    assert abs(eng.theta(c)) < 1e-12


def test_parity_symmetry_random_v(ctx):
    eng = ctx(2).engine
    rng = np.random.default_rng(3)
    for c in [char_from_string("[01/10]"), char_from_string("[01/11]"),
              char_from_string("[00/00]"), char_from_string("[11/11]")]:
        sign = -1 if parity(c) == "odd" else 1
        for _ in range(5):
            v = rng.normal(size=2) * 0.4 + 1j * rng.normal(size=2) * 0.15
            lhs = eng.theta(c, -v)
            rhs = sign * eng.theta(c, v)
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1e-3)


def test_invalid_tau_rejected():
    with pytest.raises(ValueError, match="positive definite"):
        ThetaParams(tau=np.array([[1.0 + 0j]]))


def test_radius_beyond_int16_offsets_rejected():
    with pytest.raises(ValueError, match="too large"):
        ThetaEngine(np.array([[1j]]), radius=1e6).theta(_char(1, 0))


def test_genus_beyond_lattice_key_rejected(monkeypatch):
    # the 2g-bit key of a lattice point must fit uint16; the check comes first
    def enumerate_nothing(*args):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(theta_module, "_ellipsoid_points", enumerate_nothing)
    g = MAX_GENUS + 1
    with pytest.raises(ValueError, match=f"g <= {MAX_GENUS}"):
        ThetaEngine(1j * np.eye(g)).theta(_char(g, 0))


def test_int16_bound_is_on_p():
    # the stored points are p = 2q: |p_i| <= 2R sqrt(((pi Im tau)^{-1})_ii) + 1
    # must fit int16, so R = 4e4 fails at tau = i where R = 2e4 does not
    reach = 1 / np.sqrt(np.pi)
    assert 4e4 * reach + 1 < 2**15 <= 8e4 * reach + 1
    with pytest.raises(ValueError, match="too large"):
        ThetaEngine(np.array([[1j]]), radius=4e4).theta(_char(1, 0))
    eng = ThetaEngine(np.array([[1j]]), radius=2e4)
    assert abs(eng.theta(_char(1, 0)) - ThetaEngine(np.array([[1j]])).theta(_char(1, 0))) < 1e-15
    assert eng._p.max() == int(2e4 * 2 * reach)


def test_one_enumeration_per_engine(ctx, monkeypatch):
    calls = []
    enumerate_points = theta_module._ellipsoid_points

    def counted(*args):
        calls.append(args)
        return enumerate_points(*args)

    monkeypatch.setattr(theta_module, "_ellipsoid_points", counted)
    c = ctx(3)
    fresh = CurveContext.build(c.spec, periods=c.periods)
    fresh.consts(np.arange(1 << 8))  # every constant ...
    fresh.grads(np.arange(1 << 8))  # ... every gradient ...
    fresh.deriv((1, 2), 2)  # ... and one order-2 tensor
    assert len(calls) == 1


_PI_LD = np.longdouble("3.141592653589793238462643383279502884")


def test_real_weights_against_long_double(ctx):
    """Constants and gradients of every characteristic against long-double
    sums over the engine's own points, with the v = 0 phase exact: for
    p = 2q, exp(i pi q.eps) = i^{p.eps}, and the pair q, -q gives
    2 m Re(i^{p.eps}) and -4 pi q m Im(i^{p.eps})."""
    eng = ctx(5).engine
    g, tau = eng.g, eng.params.tau
    assert not tau.real.any()  # the certifier's tau is i Y
    consts, grads = eng.values(np.arange(4**g), 0), eng.values(np.arange(4**g), 1)
    y = tau.imag.astype(np.longdouble)
    eps = (np.arange(2**g)[:, None] >> np.arange(g - 1, -1, -1)) & 1  # row eps, first entry first
    ref_c = np.zeros(4**g, dtype=np.longdouble)
    ref_g = np.zeros((4**g, g), dtype=np.longdouble)
    for eps_prime in range(2**g):
        cls = eng._lattice_class(eps_prime)
        q = cls.p.astype(np.longdouble) / 2
        m = np.exp(-_PI_LD * np.einsum("ij,ij->i", q @ y, q))
        turns = (cls.p.astype(np.int64) @ eps.T) % 4  # (N, 2^g): p.eps mod 4
        re = np.array([1, 0, -1, 0], dtype=np.longdouble)[turns]
        im = np.array([0, 1, 0, -1], dtype=np.longdouble)[turns]
        rows = (np.arange(2**g) << g) | eps_prime
        ref_c[rows] = 2 * (m @ re) - (eps_prime == 0)
        ref_g[rows] = -4 * _PI_LD * ((q * m[:, None]).T @ im).T
    assert np.max(np.abs(consts.imag)) <= 2e-15 * np.max(np.abs(consts))
    assert np.max(np.abs(consts - ref_c)) <= 2e-15 * np.max(np.abs(consts))
    assert np.max(np.abs(grads - ref_g)) <= 2e-15 * np.max(np.abs(grads))


def test_truncation_radius_monotone():
    tau = 1j * np.eye(2)
    r_tight = truncation_radius(tau, 1e-14)
    r_loose = truncation_radius(tau, 1e-4)
    assert r_loose < r_tight <= 8.0


def test_truncation_radius_warns_near_singular():
    tau = 1j * np.diag([1.0, 1e-4])
    with pytest.warns(RuntimeWarning, match="nearly singular"):
        truncation_radius(tau, 1e-14, r_max=40.0)


def test_doubling_radius_stability(ctx):
    c = ctx(2)
    tau = c.periods.tau
    base = ThetaEngine(tau, tol=1e-12)
    wide = ThetaEngine(tau, tol=1e-12, radius=2 * truncation_radius(tau, 1e-12, order=4))
    for part in enumerate_partitions(2, 0):
        ch = char_of_set(2, part.part)
        assert abs(base.theta(ch) - wide.theta(ch)) < 1e-12


def test_derivative_tensor_symmetry(ctx):
    c = ctx(3)
    t = c.deriv((), 2)
    assert np.allclose(t.entries, t.entries.T)
    d3 = ctx(5).deriv((), 3)
    e = d3.entries
    assert np.allclose(e, np.transpose(e, (1, 0, 2)))
    assert np.allclose(e, np.transpose(e, (0, 2, 1)))


@pytest.mark.parametrize("g", [2, 3])
def test_vanishing_order_exhaustive(ctx, g):
    c = ctx(g)
    for m in range((g + 1) // 2 + 1):
        for part in enumerate_partitions(g, m):
            ch = char_of_set(g, part.part)
            for order in range(m):
                t = c.engine.theta_deriv(ch, order)
                size = np.max(np.abs(t.entries))
                assert size < 1e-8 * t.scale, (part, order, size, t.scale)
            t = c.engine.theta_deriv(ch, m)
            assert np.max(np.abs(t.entries)) > 1e-6 * t.scale, (part, m)


def test_even_char_gradient_vanishes(ctx):
    c = ctx(4)
    t = c.deriv((1, 2, 3, 4), 1)
    assert np.max(np.abs(t.entries)) < 1e-10 * t.scale


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_engine_refuses_orders_above_its_own(ctx, order):
    tau = ctx(3).periods.tau
    eng = ThetaEngine(tau, order=order)
    char = _char(3, 0b101110)
    above = f"derivative order {order + 1} is above the engine's order {order}"
    with pytest.raises(ValueError, match=above):
        eng.values(np.array([0b110]), order + 1)
    with pytest.raises(ValueError, match=above):
        eng.theta_deriv(char, order + 1)
    if order == 0:
        with pytest.raises(ValueError, match=above):
            eng.values(np.arange(4**3), 1)
    # its own order sums, over the lattice at its own radius
    assert eng.theta_deriv(char, order).entries.shape == (3,) * order
    assert eng.radius == truncation_radius(tau, eng.params.tol, order=order)


def test_explicit_radius_keeps_its_meaning(ctx):
    tau = ctx(2).periods.tau
    r = truncation_radius(tau, 1e-12, order=4)
    eng = ThetaEngine(tau, radius=r, order=0)
    assert eng.points == ThetaEngine(tau).points
    assert eng.radius == r


def _tail_curves(sweep):
    """random_curve(g, s) for g = 2..6 and s = 1..3 (the single-curve
    benchmark workloads run random_curve(5, 1) and random_curve(6, 1)), and
    the benchmark's sweep curves, whose close branch-point pairs stretch tau."""
    return [random_curve(g, s) for g in range(2, 7) for s in range(1, 4)] + sweep


def test_truncation_tail_at_each_order_radius(sweep_curves):
    """Over the points of the order-4 lattice outside R_k, the bound
    2 sum |m| (2 pi max_i |q_i|)^k on the order-k terms (both of each pair
    q, -q) stays below the tolerance for k = 0..3: a lattice at R_k keeps
    the accuracy an order-4 lattice gives every order k.  The tail beyond
    R_4 is outside this check."""
    tol, worst = 1e-12, np.zeros(4)
    for spec in _tail_curves(sweep_curves):
        tau = compute_periods(spec, 96).tau
        eng = ThetaEngine(tau, tol=tol)
        eng._lattice()
        q = 0.5 * eng._p
        norm2 = np.pi * np.einsum("ij,ij->i", q @ tau.imag, q)  # ||L q||^2
        reach = 2 * np.pi * np.abs(q).max(axis=1)
        for k in range(4):
            outside = norm2 > truncation_radius(tau, tol, order=k) ** 2
            tail = 2 * np.sum(np.abs(eng._m[outside]) * reach[outside] ** k)
            worst[k] = max(worst[k], tail)
            assert tail < tol, (spec.label, k, tail)
    assert np.all(worst > 0)  # every order's radius leaves points outside it
