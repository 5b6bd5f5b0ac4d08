import warnings
from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import mpmath
import numpy as np
import pytest

from oracles import char_from_string, char_tuples, enumerate_partitions, parity
from thomae_lab.characteristics import HalfCharacteristic, _char, char_of_set
from thomae_lab import theta as theta_module
from thomae_lab.context import CurveContext
from thomae_lab.curve import MAX_GENUS
from thomae_lab.harness import random_curve
from thomae_lab.periods import compute_periods
from thomae_lab.theta import ThetaEngine, truncation_radius


def order_radius(engine: ThetaEngine, order: int) -> float:
    """The radius of the points that the engine's order-k sums read: R_k past
    order 2, where each class enumerates its own points, else the radius of
    the one lattice, R_min(k, 2)."""
    return engine.radius if order > 2 else engine._lattice_radius


def engine_at(monkeypatch, tau: np.ndarray, r: float, **kw) -> ThetaEngine:
    """An engine built while truncation_radius returns r at every order: its
    lattice, and each class it enumerates for an order above 2, are cut at r."""
    with monkeypatch.context() as m:
        m.setattr(theta_module, "truncation_radius", lambda tau, tol, order=0: r)
        return ThetaEngine(tau, **kw)


def box_class(engine: ThetaEngine, eps_prime: int, order: int = 0) -> np.ndarray:
    """Reference class: every q = n + eps'/2 with ||L q|| <= R, L^t L = pi Im(tau),
    found in the plain box |n_i| <= R sqrt(((pi Im tau)^{-1})_ii) + 1, with R
    the radius of the order-k sums."""
    g, tau, r = engine.g, engine.tau, order_radius(engine, order)
    shift = 0.5 * np.array([(eps_prime >> (g - 1 - i)) & 1 for i in range(g)])
    bound = (r * np.sqrt(np.diag(np.linalg.inv(np.pi * tau.imag))) + 1).astype(int)
    n = np.stack(np.meshgrid(*[np.arange(-b, b + 1) for b in bound], indexing="ij"), -1)
    q = n.reshape(-1, g) + shift
    chol = np.linalg.cholesky(np.pi * tau.imag)
    return q[np.sum((q @ chol) ** 2, axis=1) <= r * r]


def check_half_class(engine: ThetaEngine, eps_prime: int, order: int = 0) -> np.ndarray:
    """The class the engine's order-k sums read and its mirror -q, the origin
    counted once, must be exactly the box class; returns the box class."""
    cls = engine._lattice_class(eps_prime, order)
    full = box_class(engine, eps_prime, order)
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
    """Each order against per-character sums over the points it sums."""
    classes = {}
    for char in chars:
        eps_prime = char.bits & ((1 << engine.g) - 1)
        for order in orders:
            key = eps_prime, order_radius(engine, order)
            if key not in classes:
                classes[key] = check_half_class(engine, eps_prime, order)
            t = engine.theta_deriv(char, order)
            ref, scale = per_character_deriv(engine.tau, classes[key], char, order)
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


_ORACLE_TAU = {  # tau = i Y, as the engine sums it
    2: 1j * np.array([[1.10, 0.35], [0.35, 0.90]]),
    3: 1j * np.array([[1.20, 0.30, 0.10], [0.30, 1.00, 0.25], [0.10, 0.25, 0.95]]),
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
    tau = _ORACLE_TAU[g]
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
    tau = _ORACLE_TAU[g]
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
    tau = np.array([[0.8j]])
    eng = ThetaEngine(tau)
    c = char_from_string("[1/1]")
    v = np.array([0.21 - 0.05j])
    oracle = sum(
        np.exp(1j * np.pi * (n + 0.5) ** 2 * tau[0, 0] + 2j * np.pi * (n + 0.5) * (v[0] + 0.5))
        for n in range(-200, 201)
    )
    assert abs(eng.theta(c, v) - oracle) < 1e-13


def test_char_shift_identity_g2(ctx, monkeypatch):
    # independent route: theta[eps](0) = exp(i pi (eps'/2) tau (eps'/2)
    #   + 2 i pi (eps/2) . (eps'/2)) * theta(eps/2 + tau eps'/2) with the
    # plain zero-characteristic series at a shifted argument.  No radius
    # bounds the series at v != 0, so the lattice is cut at R_4.
    c = ctx(2)
    tau = c.periods.tau
    eng = engine_at(monkeypatch, tau, truncation_radius(tau, c.engine.tol, order=4))
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


def test_invalid_tau_rejected(monkeypatch):
    with pytest.raises(ValueError, match="positive definite"):
        ThetaEngine(np.array([[1.0 + 0j]]))
    # symmetric and indefinite (eigenvalues 3 and -1): refused through the
    # Cholesky factor, before the radius is sought
    monkeypatch.setattr(theta_module, "truncation_radius", None)
    with pytest.raises(ValueError, match="positive definite"):
        ThetaEngine(1j * np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        ThetaEngine(0.3 + 1j * np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_a_tau_with_a_real_part_is_refused(monkeypatch, g):
    # the weights are real, exp(-pi q^t Y q): a positive-definite Im tau with
    # Re tau != 0, even in one entry, is refused before the radius is sought
    monkeypatch.setattr(theta_module, "truncation_radius", None)
    y = np.eye(g) + 0.2 * np.ones((g, g))
    for re in (0.25 * np.ones((g, g)), np.eye(g)[::-1] * 1e-300):
        with pytest.raises(ValueError, match=r"Re tau must be 0"):
            ThetaEngine(re + 1j * y)


def test_radius_beyond_int16_offsets_rejected(monkeypatch):
    with pytest.raises(ValueError, match="too large"):
        engine_at(monkeypatch, np.array([[1j]]), 1e6).theta(_char(1, 0))


def test_genus_beyond_lattice_key_rejected(monkeypatch):
    # the 2g-bit key of a lattice point must fit uint16; the check comes first
    def enumerate_nothing(*args):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(theta_module, "_ellipsoid_points", enumerate_nothing)
    g = MAX_GENUS + 1
    with pytest.raises(ValueError, match=f"g <= {MAX_GENUS}"):
        ThetaEngine(1j * np.eye(g)).theta(_char(g, 0))


def test_int16_bound_is_on_p(monkeypatch):
    # the stored points are p = 2q: |p_i| <= 2R sqrt(((pi Im tau)^{-1})_ii) + 1
    # must fit int16, so R = 4e4 fails at tau = i where R = 2e4 does not
    reach = 1 / np.sqrt(np.pi)
    assert 4e4 * reach + 1 < 2**15 <= 8e4 * reach + 1
    with pytest.raises(ValueError, match="too large"):
        engine_at(monkeypatch, np.array([[1j]]), 4e4).theta(_char(1, 0))
    eng = engine_at(monkeypatch, np.array([[1j]]), 2e4)
    assert abs(eng.theta(_char(1, 0)) - ThetaEngine(np.array([[1j]])).theta(_char(1, 0))) < 1e-15
    assert eng._p.max() == int(2e4 * 2 * reach)


def test_enumerator_refuses_a_radius_past_int16_before_forming_points(monkeypatch):
    # at tau = i, chol = sqrt(pi) and |p| <= r / sqrt(pi) + 1: the enumerator
    # checks the bound itself, not only through the engine
    chol = np.array([[np.sqrt(np.pi)]])
    p, _ = theta_module._ellipsoid_points(chol, (2**15 - 2) * np.sqrt(np.pi))
    assert p.dtype == np.int16 and p.max() == 2**15 - 2

    def form_nothing(*args, **kwargs):
        raise AssertionError("a point was formed")

    with monkeypatch.context() as m:
        m.setattr(np, "repeat", form_nothing)  # every row of the result is laid out by np.repeat
        with pytest.raises(ValueError, match="too large"):
            theta_module._ellipsoid_points(chol, 2**15 * np.sqrt(np.pi))  # p = 2^15 would wrap


def test_a_bound_past_2_to_the_7_stores_int16(monkeypatch):
    # at tau = i the bound 2R / sqrt(pi) + 1 reaches 2^7 between R = 112 and 113
    reach = 2 / np.sqrt(np.pi)
    assert 112 * reach + 1 < 2**7 <= 113 * reach + 1
    narrow, wide = (engine_at(monkeypatch, np.array([[1j]]), r) for r in (112, 113))
    assert narrow._p.dtype == np.int8 and wide._p.dtype == np.int16
    assert np.array_equal(narrow.values(np.arange(4), 0), wide.values(np.arange(4), 0))


def test_every_real_curve_stores_one_byte_per_coordinate(sweep_curves):
    # the lattice at R_2 and each class enumerated at R_k for orders 3 and 4
    for spec in _tail_curves(sweep_curves):
        eng = ThetaEngine(compute_periods(spec, 96).tau)
        assert eng._p.itemsize == 1, spec.label
        assert theta_module._point_dtype(eng._chol, 2 * eng.radius) is np.int8, spec.label


@pytest.mark.parametrize("g", [7, 8])
def test_genus_7_and_8_curves_take_int8_at_r_4(g):
    for seed in (1, 2, 3):
        tau = compute_periods(random_curve(g, seed), 96).tau
        chol = np.linalg.cholesky(np.pi * tau.imag).T
        assert theta_module._point_dtype(chol, 2 * truncation_radius(tau, 1e-12, order=4)) is np.int8, seed


def test_a_radius_below_the_near_singular_warning_stores_int8():
    # ||row i of chol^-1|| <= 1 / sqrt(lam_min), so below the warning
    # R / sqrt(lam_min) <= RADIUS_WARN = 40 the bound is at most 2 * 40 + 1 = 81
    assert 2 * theta_module.RADIUS_WARN + 1 < 2**7
    rng = np.random.default_rng(7)
    for g in range(1, MAX_GENUS + 1):
        rot, _ = np.linalg.qr(rng.normal(size=(g, g)))
        y = rot @ np.diag(np.logspace(-4, 0, g)) @ rot.T  # eigenvalues 1e-4 to 1, rotated
        chol = np.linalg.cholesky(np.pi * y).T
        r = theta_module.RADIUS_WARN * np.sqrt(np.linalg.eigvalsh(np.pi * y)[0])
        assert theta_module._point_dtype(chol, 2 * r) is np.int8, g
    # a radius just below the warning, on a stretched genus-2 tau
    tau = 1j * np.diag([1.0, 0.0069])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eng = ThetaEngine(tau, order=0)
    assert eng.radius / np.sqrt(np.pi * 0.0069) > 0.95 * theta_module.RADIUS_WARN
    assert eng._p.dtype == np.int8 and np.abs(eng._p).max() <= 81


@pytest.mark.parametrize("g", [3, 5])
def test_int16_points_give_the_same_stores(ctx, monkeypatch, g):
    tau, chars = ctx(g).periods.tau, np.arange(4**g)
    narrow = ThetaEngine(tau)
    point_dtype = theta_module._point_dtype
    monkeypatch.setattr(theta_module, "_point_dtype", lambda chol, r: point_dtype(chol, r) and np.int16)
    wide = ThetaEngine(tau)
    assert narrow._p.dtype == np.int8 and wide._p.dtype == np.int16
    for order in range(4):
        assert np.array_equal(narrow.values(chars, order), wide.values(chars, order)), order
    assert np.array_equal(narrow._m, wide._m)


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


def _per_bin_reference(cls, g: int, order: int) -> np.ndarray:
    """The bin sums as the kernel once formed them: q = p / 2 first, order 1
    as one segmented sum of m q, and every higher order bin by bin, with the
    monomial product m q_c1 ... of that bin alone."""
    tail, pick, _ = theta_module._layout(g, order)
    bins = np.zeros((2**g, len(pick)))
    filled = np.flatnonzero(np.diff(cls.starts))
    q = 0.5 * cls.p
    if order == 1:
        bins[filled] = np.add.reduceat(cls.m[:, None] * q, cls.starts[filled])
        return bins
    for b in filled:
        lo, hi = cls.starts[b], cls.starts[b + 1]
        rest = cls.m[lo:hi, None]
        for c in tail.T:
            rest = rest * q[lo:hi, c]
        bins[b] = (q[lo:hi].T @ rest).ravel()[pick]
    return bins


@pytest.mark.parametrize("block", [64, theta_module._BLOCK])
@pytest.mark.parametrize("g", [5, 6])
def test_bins_are_bit_identical_to_per_bin_sums(ctx, monkeypatch, g, block):
    # chunked products change no bit, neither with chunks of many bins nor
    # with bins larger than a chunk (block 64); order 1 halves exactly
    monkeypatch.setattr(theta_module, "_BLOCK", block)
    eng = ctx(g).engine
    rng = np.random.default_rng(g)
    classes = [0, 2**g - 1, *rng.choice(np.arange(1, 2**g - 1), size=6, replace=False).tolist()]
    for eps_prime in classes:
        cls = eng._lattice_class(eps_prime)
        for order in (1, 2, 3):
            assert np.array_equal(eng._bins(cls, order), _per_bin_reference(cls, g, order)), \
                (eps_prime, order)


@pytest.mark.parametrize("g", range(1, 7))
def test_points_are_key_sorted_and_lexicographic_within_a_key(ctx, g):
    eng = ctx(g).engine
    p = eng._p.astype(np.int64)
    bit = 1 << np.arange(g - 1, -1, -1)  # entry i at bit g-1-i
    key = (p & 1) @ bit << g | (p >> 1 & 1) @ bit
    assert np.all(np.diff(key) >= 0)
    assert np.array_equal(eng._starts, np.concatenate([[0], np.cumsum(np.bincount(key, minlength=4**g))]))
    # within a key, strictly ascending in (p_{g-1}, ..., p_0): the last
    # entry that differs between neighbours grows
    same = np.diff(key) == 0
    step = (p[1:] - p[:-1])[same][:, ::-1]
    assert np.all(step[np.arange(len(step)), np.argmax(step != 0, axis=1)] > 0)


def box_points(chol: np.ndarray, r: float, parity: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reference for _ellipsoid_points: every integer p of the box
    |p_i| <= r ||row i of chol^-1|| + 1 with ||chol p|| <= r, in the
    lexicographic half-space (or p = 0) and, with a parity, in its class;
    sorted by key, then by (p_{g-1}, ..., p_0), with the key starts."""
    g = len(chol)
    bound = (r * np.linalg.norm(np.linalg.inv(chol), axis=1) + 1).astype(int)
    p = np.stack(np.meshgrid(*[np.arange(-b, b + 1) for b in bound], indexing="ij"), -1).reshape(-1, g)
    last = p[np.arange(len(p)), g - 1 - np.argmax(p[:, ::-1] != 0, axis=1)]
    p = p[(np.sum((p @ chol.T) ** 2, axis=1) <= r * r) & (last >= 0)]
    bit = 1 << np.arange(g - 1, -1, -1)  # entry i at bit g-1-i
    key = (p & 1) @ bit << g | (p >> 1 & 1) @ bit
    keys = 4**g
    if parity is not None:
        p, key, keys = p[key >> g == parity], key[key >> g == parity] - (parity << g), 2**g
    order = np.lexsort((*p.T, key))
    return p[order], np.concatenate([[0], np.cumsum(np.bincount(key, minlength=keys))])


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_ellipsoid_points_against_a_box(ctx, g):
    # the same points, key starts and order within a key as a plain box
    # enumeration, for the whole lattice and every class, at R_0, R_2 and R_4,
    # and on an ellipsoid with lattice points on its boundary (||2 p|| = 4)
    eng = ctx(g).engine
    chol = np.linalg.cholesky(np.pi * eng.tau.imag).T
    radii = (truncation_radius(eng.tau, eng.tol, 0), eng._lattice_radius, eng.radius)
    for chol, radius in [*((chol, r) for r in radii), (2.0 * np.eye(g), 2.0)]:
        for parity in [None, *range(2**g)]:
            p, starts = theta_module._ellipsoid_points(chol, 2 * radius, parity)
            want, want_starts = box_points(chol, 2 * radius, parity)
            assert np.array_equal(p, want), (radius, parity)
            assert np.array_equal(starts, want_starts), (radius, parity)


_PI_LD = np.longdouble("3.141592653589793238462643383279502884")


def test_real_weights_against_long_double(ctx):
    """Constants and gradients of every characteristic against long-double
    sums over the engine's own points, with the v = 0 phase exact: for
    p = 2q, exp(i pi q.eps) = i^{p.eps}, and the pair q, -q gives
    2 m Re(i^{p.eps}) and -4 pi q m Im(i^{p.eps})."""
    eng = ctx(5).engine
    g, tau = eng.g, eng.tau
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
        truncation_radius(tau, 1e-14)


def test_doubling_radius_stability(ctx, monkeypatch):
    c = ctx(2)
    tau = c.periods.tau
    base = ThetaEngine(tau, tol=1e-12)
    wide = engine_at(monkeypatch, tau, 2 * truncation_radius(tau, 1e-12, order=4), tol=1e-12)
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
    assert eng.radius == truncation_radius(tau, eng.tol, order=order)


@pytest.mark.parametrize("g", [3, 5, 6])
def test_orders_past_2_are_bit_identical_to_one_lattice_at_r_k(ctx, monkeypatch, g):
    # the reference sums every order over one lattice at R_4, as the engine
    # once did: each class enumerated on its own at R_4 gives the same
    # points, in the same order, with the same weights.  The reference's
    # order-3/4 rows are formed from the slices of its lattice, since its own
    # values() would enumerate each class alone too.  Orders 0-2 sum the
    # lattice at R_2 and differ from the reference by terms past R_2 alone,
    # whose sum is at most B_j(R_2) <= theta_tol.
    eng = ctx(g).engine
    tau, chars, eps_prime = eng.tau, np.arange(4**g), np.arange(2**g)
    ref = engine_at(monkeypatch, tau, truncation_radius(tau, eng.tol, order=eng.order))
    assert eng._lattice_radius == truncation_radius(tau, eng.tol, order=2) < eng.radius == ref.radius
    assert ref._lattice_radius == ref.radius
    for order in (3, 4) if g == 3 else (3,):
        eng.values(chars, order)  # builds every class
        table = eng._stores[order][0].reshape(2**g, 2**g, -1).swapaxes(0, 1)  # [eps', eps]
        bins = np.stack([ref._bins(ref._lattice_class(e), order) for e in eps_prime.tolist()])
        assert np.array_equal(table, ref._transform(bins, eps_prime, order)), order
    for order in range(3):
        bound = theta_module._tail_bound(tau, order)[1](eng._lattice_radius)[0]
        diff = np.max(np.abs(eng.values(chars, order) - ref.values(chars, order)))
        assert diff <= bound <= eng.tol, (order, diff, bound)


@pytest.mark.parametrize("g", range(1, 7))
def test_a_parity_enumeration_is_its_slice_of_the_lattice(ctx, g):
    # each class enumerated alone has the rows of its key range of the whole
    # lattice at the same radius, in the same order; at g <= 3 its points
    # and their mirrors are also exactly the box class
    eng = ctx(g).engine
    chol = np.linalg.cholesky(np.pi * eng.tau.imag).T
    p, starts = theta_module._ellipsoid_points(chol, 2 * eng.radius)
    for eps_prime in range(2**g):
        own, bins = theta_module._ellipsoid_points(chol, 2 * eng.radius, eps_prime)
        keys = starts[eps_prime << g : (eps_prime + 1 << g) + 1]
        assert np.array_equal(own, p[keys[0] : keys[-1]]), eps_prime
        assert np.array_equal(bins, keys - keys[0]), eps_prime
        if g <= 3:
            check_half_class(eng, eps_prime, eng.order)


def test_an_order_past_2_enumerates_each_class_once(ctx, monkeypatch):
    calls = []
    enumerate_points = theta_module._ellipsoid_points

    def counted(*args):
        calls.append(args[2:])
        return enumerate_points(*args)

    monkeypatch.setattr(theta_module, "_ellipsoid_points", counted)
    eng = ThetaEngine(ctx(3).periods.tau)
    lattice = eng.points
    eng.values(np.array([0b000101, 0b110101, 0b000011]), 3)  # eps' = 0b101 and 0b011
    eng.values(np.array([0b000101]), 3)  # built: no enumeration
    assert calls == [(), (0b011,), (0b101,)]
    own = [len(enumerate_points(np.linalg.cholesky(np.pi * eng.tau.imag).T, 2 * eng.radius, e)[0])
           for e in (0b011, 0b101)]
    assert eng.points == lattice + sum(own)


@pytest.mark.parametrize("read", ["deriv", "derivs"])
def test_points_count_each_class_once_per_order(read):
    # theta_deriv enumerates the class again for its scale; only the build
    # that fills the class's rows counts its points
    ctx = CurveContext.build(random_curve(5, 1))
    assert ctx.engine.points == 44041
    for _ in range(2):
        if read == "deriv":
            ctx.deriv((1, 2), 3)
        else:
            ctx.derivs(np.array([0b110]), 3)
        assert ctx.engine.points == 46072  # the R_2 lattice and one class at R_4


@pytest.mark.parametrize("order", [0, 3])
def test_an_engine_factors_pi_im_tau_once(ctx, monkeypatch, order):
    # __init__, both truncation radii (R_3 and R_2), the lattice and every
    # class enumerated at R_3 share one factor; each width bound inverts it
    # once: the lattice's, and at order 3 the R_3 check and the 16 classes'
    tau, calls = ctx(4).periods.tau, Counter()
    for name in ("cholesky", "inv"):
        def spy(*args, _name=name, _fn=getattr(np.linalg, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(np.linalg, name, spy)
    theta_module._factor_of.cache_clear()
    ThetaEngine(tau, order=order).values(np.arange(4**4), order)
    assert calls == {"cholesky": 1, "inv": 1 if order == 0 else 2 + 2**4}, calls


def test_int16_bound_is_checked_on_r_k_before_any_enumeration(monkeypatch):
    # R_2 would fit int16; R_3 does not, and no point is enumerated
    def radius(tau, tol, order=0):
        return 4e4 if order > 2 else 5.0

    def enumerate_nothing(*args):
        raise AssertionError("the lattice was enumerated")

    monkeypatch.setattr(theta_module, "truncation_radius", radius)
    monkeypatch.setattr(theta_module, "_ellipsoid_points", enumerate_nothing)
    with pytest.raises(ValueError, match="too large"):
        ThetaEngine(np.array([[1j]]), order=3)


def _tail_curves(sweep):
    """random_curve(g, s) for g = 2..6 and s = 1..3 (the single-curve
    benchmark workloads run random_curve(5, 1) and random_curve(6, 1)), and
    the benchmark's sweep curves, whose close branch-point pairs stretch tau."""
    return [random_curve(g, s) for g in range(2, 7) for s in range(1, 4)] + sweep


def test_truncation_tail_at_each_order_radius(sweep_curves, monkeypatch):
    """For k = 0..4, the summed bound 2 sum |m| (2 pi max_i |q_i|)^k on the
    order-k terms outside R_k (both of each pair q, -q) of every eps' class
    stays below the proven bound B_k(R_k), which stays below the tolerance.
    The tail is measured on a lattice of radius R_4 + 1, so it holds every
    point of each order's tail but those beyond R_4 + 1."""
    tol, worst = 1e-12, np.zeros(5)
    for spec in _tail_curves(sweep_curves):
        tau = compute_periods(spec, 96).tau
        g = tau.shape[0]
        radii = [truncation_radius(tau, tol, order=k) for k in range(5)]
        eng = engine_at(monkeypatch, tau, radii[4] + 1.0, tol=tol)
        q = 0.5 * eng._p
        norm2 = np.pi * np.einsum("ij,ij->i", q @ tau.imag, q)  # ||L q||^2
        reach = 2 * np.pi * np.abs(q).max(axis=1)
        cls = np.repeat(np.arange(2**g), np.diff(eng._starts[:: 2**g]))  # eps' of each point
        for k, r in enumerate(radii):
            outside = norm2 > r * r
            tail = 2 * np.bincount(cls[outside], np.abs(eng._m[outside]) * reach[outside] ** k,
                                   minlength=2**g).max()
            bound = theta_module._tail_bound(tau, k)[1](r)[0]
            worst[k] = max(worst[k], tail / bound)
            assert tail <= bound < tol, (spec.label, k, tail, bound)
    assert np.all(worst > 0)  # every order's radius leaves points outside it


@pytest.mark.parametrize("g", range(1, MAX_GENUS + 1))
def test_tail_bound_closed_form_against_quadrature(g):
    """B_k(R) is (2 pi / sqrt(lam_min))^k int_R^oo N(s) (-h'(s)) ds with
    N(s) = V_g (s + mu)^g / det L and h(s) = s^k e^{-s^2}, here integrated by
    mpmath, at the radius the solve returns; and the solve is tight: the
    bound there is within a factor 50 of the tolerance."""
    tol = 1e-12
    rng = np.random.default_rng(g)
    a = rng.normal(size=(g, g))
    tau = 1j * (a @ a.T / g + 0.3 * np.eye(g))
    y = np.pi * tau.imag
    diag = np.diag(np.linalg.cholesky(y))
    lam_min = np.linalg.eigvalsh(y)[0]
    mu = mpmath.mpf(0.5 * float(np.sqrt(diag @ diag)))
    count = mpmath.pi ** (g / 2) / mpmath.gamma(g / 2 + 1) / mpmath.mpf(float(np.prod(diag)))
    for k in range(5):
        r = truncation_radius(tau, tol, order=k)
        bound = theta_module._tail_bound(tau, k)[1](r)[0]
        with mpmath.workdps(30):
            n_dh = lambda s: count * (s + mu) ** g * (2 * s * s - k) * s ** (k - 1) * mpmath.exp(-s * s)
            want = (2 * mpmath.pi / mpmath.sqrt(lam_min)) ** k * mpmath.quad(n_dh, [r, r + 2, r + 6, mpmath.inf])
        assert abs(bound - float(want)) <= 1e-10 * float(want), (k, bound, want)
        assert tol / 50 < bound < tol, (k, bound)
