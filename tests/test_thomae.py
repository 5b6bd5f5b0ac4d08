import json
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest

from oracles import complement_finite, drop, enumerate_partitions, vandermonde
from thomae_lab.characteristics import char_of_set, mask_chars
from thomae_lab.harness import FAMILIES, main
from thomae_lab.indexsets import index_mask as _mask, iset
from thomae_lab.theta import ThetaEngine
from thomae_lab.thomae import (
    calibrate_phases,
    first_thomae_rhs,
    general_thomae_batch,
    thomae_prefactor,
)


def forms(ctx, a, k):
    """The direct and the ratio-form tensor of one (A, K), from a one-row
    batch, with the predicted phase folded in."""
    direct, ratio = general_thomae_batch(ctx, np.array([_mask(a)]), np.array([_mask(k)]))
    return direct[0], ratio[0]


def _s_vector(ctx, indices):
    """omega^t (s_0, -s_1, ..., (-1)^{g-1} s_{g-1})(indices): one value per n,
    in exact rational arithmetic on the double inputs, rounded once.  The sum
    over the differentials can cancel far below its terms, which the
    term-size bounds of the tests that read it do not count."""
    g = ctx.g
    s = [Fraction(1)] + [Fraction(0)] * g
    for i in indices:  # expand prod (1 + e_i t)
        e = Fraction(ctx.spec.branch_points[i - 1])
        for d in range(g, 0, -1):
            s[d] += e * s[d - 1]
    omega = ctx.periods.omega
    return np.array([
        complex(*(float(sum(Fraction(part(omega[j, n])) * (-1) ** j * s[j] for j in range(g)))
                  for part in (np.real, np.imag)))
        for n in range(g)
    ])


def _thomae_sums(ctx, a, k, m):
    """Reference: the ordered-tuple sum of the general formula for every
    1-based multi-index of order m, in ``product`` order, term by term, and
    the sum of its terms' |values|; shape (2, g**m)."""
    e = ctx.spec.branch_points
    svec = {p: _s_vector(ctx, drop(iset(a + k), p)) for p in k}
    out = []
    for multi_index in product(range(1, ctx.g + 1), repeat=m):
        total, size = 0.0 + 0j, 0.0
        for chosen in combinations(k, m):
            rest = [q for q in k if q not in chosen]
            for ordering in set(permutations(chosen)):
                term = 1.0 + 0j
                for p, n in zip(ordering, multi_index):
                    denom = 1.0
                    for q in rest:
                        denom *= e[p - 1] - e[q - 1]
                    term *= svec[p][n - 1] / denom
                total += term
                size += abs(term)
        out.append((total, size))
    return np.array(out).T


@pytest.mark.parametrize("g", [2, 3])
def test_first_thomae_all_characteristics(ctx, g):
    c = ctx(g)
    for i0 in combinations(range(1, 2 * g + 2), g):
        lhs = c.const(i0)
        rhs = first_thomae_rhs(c, i0)
        ratio = lhs / rhs
        assert abs(abs(ratio) - 1.0) < 1e-6, i0
        assert abs(ratio - 1.0) < 1e-6, i0  # the predicted phase is +1


def test_first_thomae_rejects_wrong_multiplicity(ctx):
    with pytest.raises(ValueError):
        first_thomae_rhs(ctx(2), (1,))


def test_first_thomae_common_factor_ratio(ctx):
    # the det(omega) factor drops out of ratios of two characteristics
    c = ctx(2)
    a, b = (1, 2), (3, 5)
    ratio = first_thomae_rhs(c, a) / first_thomae_rhs(c, b)
    ja, jb = complement_finite(5, a), complement_finite(5, b)
    expected = (
        vandermonde(c.spec, a) * vandermonde(c.spec, ja)
        / (vandermonde(c.spec, b) * vandermonde(c.spec, jb))
    ) ** 0.25
    assert abs(ratio - expected) < 1e-12 * abs(expected)


@pytest.mark.parametrize("g", [2, 3])
def test_second_thomae_componentwise(ctx, g):
    c = ctx(g)
    for part in enumerate_partitions(g, 1):
        lhs = c.grads(_mask(part.part))
        k = complement_finite(c.spec.n_finite, part.part)[: g - len(part.part)]
        rhs = forms(c, part.part, k)[0]
        k = int(np.argmax(np.abs(lhs)))
        assert abs(lhs[k] / rhs[k] - 1.0) < 1e-6, part
        assert np.max(np.abs(lhs - rhs)) < 1e-6 * np.max(np.abs(lhs)), part


def test_second_thomae_phase_common_across_components(ctx):
    c = ctx(3)
    lhs = c.grads(_mask((1, 2)))
    rhs = forms(c, (1, 2), (3,))[0]
    phases = lhs / rhs
    assert np.max(np.abs(phases - phases[0])) < 1e-10


def test_second_thomae_matches_general_machinery(ctx):
    # the closed form -prefactor * s(I_1) is the |K| = 1 general formula; the
    # predicted phase (-1)^{m(m+1)/2} is -1 at m = 1
    c = ctx(3)
    i1 = (2, 5)
    closed = -thomae_prefactor(c, np.array([_mask(i1)]))[0] * _s_vector(c, i1)
    for k in complement_finite(7, i1)[:3]:
        v = forms(c, i1, (k,))[0][1]
        assert abs(v - closed[1]) < 1e-12 * abs(v)


def test_second_thomae_rejects_wrong_multiplicity(ctx):
    # (1, 2) is a multiplicity-0 set at genus 2: no K is left for it
    with pytest.raises(ValueError, match=r"\|K\|"):
        forms(ctx(2), (1, 2), ())


def test_general_thomae_m2_full_tensor(ctx):
    c = ctx(3)
    lhs = c.deriv((), 2).entries
    pred = forms(c, (), (1, 2, 3))[0]
    assert pred.shape == (3, 3)
    i, j = np.unravel_index(np.argmax(np.abs(lhs)), lhs.shape)
    assert abs(lhs[i, j] / pred[i, j] - 1.0) < 1e-5
    assert np.max(np.abs(lhs - pred)) < 1e-5 * np.max(np.abs(lhs))


def test_general_thomae_k_independence(ctx):
    c = ctx(3)
    k_sets = [(1, 2, 3), (4, 5, 6), (2, 5, 7), (3, 6, 7)]
    direct = general_thomae_batch(
        c, np.zeros(4, dtype=np.int64), np.array([_mask(k) for k in k_sets])
    )[0]
    vals = direct[:, 0, 1].tolist()
    scale = max(abs(v) for v in vals)
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-8 * scale


def test_general_thomae_tensor_symmetry(ctx):
    # the ordered-tuple sum is symmetric in the multi-index (up to the
    # floating-point summation order)
    c = ctx(3)
    t = forms(c, (), (1, 2, 3))[0]
    v1, v2 = t[0, 1], t[1, 0]
    assert abs(v1 - v2) < 1e-13 * abs(v1)


def test_general_thomae_k_size_validation(ctx):
    c = ctx(3)
    with pytest.raises(ValueError, match=r"\|K\|"):
        forms(c, (), (1, 2, 3, 4))
    with pytest.raises(ValueError, match=r"\|K\|"):
        forms(c, (1,), (2, 3, 4))
    with pytest.raises(ValueError, match="disjoint"):
        forms(c, (1,), (1, 2))
    with pytest.raises(ValueError, match="infinity"):
        forms(c, (), (0, 2, 3))


def test_ratio_form_equals_quotient(ctx):
    c = ctx(3)
    i0 = (2, 4, 6)
    direct, ratio = forms(c, (), (2, 4, 6))
    r1 = ratio[0, 2]
    r2 = direct[0, 2] / first_thomae_rhs(c, i0)
    assert abs(r1 - r2) < 1e-10 * abs(r1)


def test_ratio_form_prefactor_positive(ctx):
    # with sorted real branch points the quartic prefactor is positive real
    c = ctx(4)
    i0 = (1, 2, 3, 4)
    direct, ratio = forms(c, (4,), (1, 2, 3))
    val_a = ratio[0, 0]
    val_b = direct[0, 0] / first_thomae_rhs(c, i0)
    assert abs(val_a - val_b) < 1e-10 * abs(val_a)


def _first_masks(g):
    """The finite g-sets I_0 in ``combinations`` order, and their masks."""
    sets = list(combinations(range(1, 2 * g + 2), g))
    return sets, np.array([_mask(i0) for i0 in sets])


def test_calibration(ctx):
    # THOMAE1's ratio kernel over every even non-singular characteristic:
    # each ratio is the predicted phase +1
    for g in (2, 3):
        ratios = calibrate_phases(ctx(g), _first_masks(g)[1])
        assert np.abs(ratios - 1.0).max() < 1e-6
        for ratio in ratios.tolist():
            assert abs(ratio / abs(ratio) - 1.0) < 1e-6
        rows = len(list(enumerate_partitions(g, 0)))
        assert ratios.shape == (rows,)


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_array_calibration_matches_scalar_rhs(ctx, g):
    c = ctx(g)
    sets, masks = _first_masks(g)
    ratios = calibrate_phases(c, masks)
    assert mask_chars(g)[masks].tolist() == [char_of_set(c.g, i0).bits for i0 in sets]
    for i0, got in zip(sets, ratios.tolist()):
        ratio = c.const(i0) / first_thomae_rhs(c, i0)
        assert abs(got - ratio) <= 1e-13 * abs(ratio), i0
        assert abs(got - 1.0) < 1e-6, i0  # the predicted phase
        assert abs(abs(got - 1.0) - abs(ratio - 1.0)) <= 1e-13, i0


def _own_constants(c):
    """A shallow copy of the context whose engine holds its own copy of the
    order-0 store, that store, and the store row of an index set."""
    import copy

    broken = copy.copy(c)
    broken.engine = copy.copy(c.engine)
    table, built = c.engine._stores[0]
    broken.engine._stores = {0: (table.copy(), built)}

    def row(indices):
        return char_of_set(c.g, indices).bits

    return broken, broken.engine._stores[0][0][:, 0], row


def _thomae1_fails(c):
    """The I_0 of the THOMAE1 records that fail, over every I_0 of c."""
    rows = _first_masks(c.g)[1][:, None]
    records = FAMILIES["THOMAE1"].verify(c, rows)
    assert len(records) == len(rows)
    return [r.bindings["I0"] for r in records if not r.passed]


def test_calibration_failure_detected(ctx):
    # corrupting one cached theta constant fails exactly its THOMAE1 record
    c = ctx(2)
    c.const((1, 2))  # fill the order-0 store before copying it
    broken, consts, row = _own_constants(c)
    assert _thomae1_fails(broken) == []
    consts[row((1, 2))] = c.const((1, 2)) * 1.07
    assert _thomae1_fails(broken) == [(1, 2)]


@pytest.mark.parametrize("g", [5, 6])
def test_general_thomae_tensor_matches_entrywise_sum(ctx, g):
    c = ctx(g)
    for m in (1, 2, 3):
        # |K| = g - |A| is 2m - 1 (infinity in J_m) or 2m (infinity in I_m,
        # which needs |I_m| = g + 1 - 2m >= 1)
        parts = {}
        for p in enumerate_partitions(g, m):
            parts.setdefault(g - len(p.part), []).append(p.part)
        assert sorted(parts) == [2 * m - 1, 2 * m][: 1 + (g + 1 - 2 * m >= 1)]
        for ksize, sets in parts.items():
            sets = sets[:4]  # one batch of rows
            ks = [complement_finite(c.spec.n_finite, a)[-ksize:] for a in sets]
            batch = general_thomae_batch(
                c, np.array([_mask(a) for a in sets]), np.array([_mask(k) for k in ks])
            )[0]
            assert batch.shape == (len(sets),) + (g,) * m
            for a, k, t in zip(sets, ks, batch):
                ref, size = _thomae_sums(c, a, k, m).reshape((2,) + t.shape)
                pref = first_thomae_rhs_like(c, a) * (-1) ** (m * (m + 1) // 2)
                # relative to the size of its terms: at m = 3 an entry can cancel to 1e-15 of it
                assert np.all(np.abs(t - pref * ref) <= 1e-12 * abs(pref) * size.real), (m, a, k)
                for axes in permutations(range(m)):
                    assert np.array_equal(t, np.transpose(t, axes)), (m, a, k)
                # a row of the batch is the one-row result
                assert np.array_equal(t, forms(c, a, k)[0]), (m, a, k)


def first_thomae_rhs_like(c, a):
    """(det omega/pi^g)^{1/2} Delta(A)^{1/4} Delta(B)^{1/4}, B the finite
    complement of A, from the scalar Vandermonde products."""
    b = complement_finite(c.spec.n_finite, a)
    return c.det_factor * vandermonde(c.spec, a) ** 0.25 * vandermonde(c.spec, b) ** 0.25


def test_calibration_failure_names_first_set(ctx):
    # several corrupted constants fail their own records, in combinations
    # order; a NaN constant fails like any misfit
    c = ctx(3)
    c.const((1, 2, 3))
    broken, consts, row = _own_constants(c)
    consts[row((2, 4, 6))] = np.nan
    consts[row((1, 5, 7))] *= 1.07
    assert _thomae1_fails(broken) == [(1, 5, 7), (2, 4, 6)]
    consts[row((1, 5, 7))] = c.const((1, 5, 7))
    assert _thomae1_fails(broken) == [(2, 4, 6)]


def test_perturbed_constants_fail_thomae1_not_the_run(monkeypatch, capsys):
    # every order-0 store value scaled by (1 + 1e-3 xi), xi complex normal
    # per characteristic: a misfit of the first Thomae formula is a failed
    # record (exit 1), not an infrastructure failure (exit 2)
    build = ThetaEngine._build

    def perturbed(engine, order, eps_prime):
        build(engine, order, eps_prime)
        if order == 0:
            table = engine._stores[0][0]
            xi = np.array([1, 1j]) @ np.random.default_rng(0).standard_normal((2, len(table)))
            table[:, 0] *= 1 + 1e-3 * xi

    monkeypatch.setattr(ThetaEngine, "_build", perturbed)
    assert main(["verify", "--genus", "3", "--seed", "1", "--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    thomae1 = [r for r in records if r["relation_id"] == "THOMAE1"]
    assert thomae1 and not any(r["pass"] for r in thomae1)
