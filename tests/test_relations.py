from itertools import combinations, permutations

import numpy as np
import pytest

from oracles import (
    char_from_string,
    complement_finite,
    drop,
    enumerate_partitions,
    ref_collection_rank,
    replace,
)
from thomae_lab.context import CurveContext
from thomae_lab.harness import DEFAULT_TOLERANCES, FAMILIES, SuiteConfig, _family_rng, random_curve
from thomae_lab.indexsets import index_mask as _mask, iset
from thomae_lab.relations import (
    _match_residuals,
    _predicted,
    conjecture_batch,
    derivative_batch,
    eji_batch,
    eklm_batch,
    general_r_tensor,
    grad2_batch,
    grad3_batch,
    grad4_batch,
    gradn_batch,
    hessian_equiv_batch,
    hessian_rank_batch,
    make_records,
    predicted_collection_rank,
    rank_batch,
    rj_det_batch,
)
from thomae_lab.theta import ThetaEngine

GRAD_TOL = 1e-8


def representation_tensor(c, i0, k_set, j_m, j_n):
    """The predicted order-m derivative tensor of theta[I0 - K] for one
    binding, m = (|K|+1)//2."""
    return _predicted(c, np.array([[_mask(i0), _mask(k_set), j_m, j_n]]))[0]


# --- cross ratios -----------------------------------------------------------

def test_eklm_exhaustive_g2(ctx, one):
    c = ctx(2)
    worst = 0.0
    for i_set in combinations(range(1, 6), 1):
        pool = [x for x in range(1, 6) if x not in i_set]
        for j_set in combinations(pool, 1):
            rest = [x for x in pool if x not in j_set]
            for k, m, n in permutations(rest):
                rec = one(eklm_batch, c, i_set, j_set, k, m, n)
                worst = max(worst, rec.residual)
    assert worst < 1e-8


def test_eklm_binding_validation(ctx, one):
    with pytest.raises(ValueError, match="partition"):
        one(eklm_batch, ctx(2), (1,), (1,), 2, 3, 4)
    with pytest.raises(ValueError, match="partition"):
        one(eklm_batch, ctx(3), (1, 2), (3, 4), 5, 6, 9)


def test_eji_sample_g3(ctx, one):
    c = ctx(3)
    count = 0
    for i0 in combinations(range(1, 8), 3):
        j0 = complement_finite(7, i0)
        rec = one(eji_batch, c, i0, i0[:2], j0[0], j0[1])
        assert rec.residual < 1e-8, rec.bindings
        count += 1
        if count >= 50:
            break


def test_eji_jpair_swap_invariance(ctx, one):
    c = ctx(3)
    r1 = one(eji_batch, c, (1, 2, 3), (1, 2), 4, 5)
    r2 = one(eji_batch, c, (1, 2, 3), (1, 2), 5, 4)
    assert r1.residual < 1e-8 and r2.residual < 1e-8


# --- two-term gradient relations (Appendix A / B) ---------------------------

def test_appendix_a_all_ten_relations(ctx, one):
    c = ctx(2)
    for i0 in combinations(range(1, 6), 2):
        j0 = complement_finite(5, i0)
        rec = one(grad2_batch, c, i0, i0[:2], j0[0], j0[1])
        assert rec.residual < GRAD_TOL, rec.bindings


def test_appendix_a_first_relation_characteristic_form(ctx):
    # the printed matrix-characteristic form of the first genus-2 relation
    c = ctx(2)
    eng = c.engine

    def th(s):
        return eng.theta(char_from_string(s))

    def gr(s):
        return eng.theta_deriv(char_from_string(s), 1).entries

    lhs = gr("[11/01]") * th("[11/00]") * th("[10/00]") * th("[10/01]")
    rhs = th("[00/01]") * th("[00/00]") * th("[01/00]") * gr("[01/01]") - th("[00/11]") * th(
        "[00/10]"
    ) * th("[01/10]") * gr("[01/11]")
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


def test_appendix_b_all_fifteen_relations(ctx, one):
    # genus 3: every decomposition of grad theta^{1} over pairs from {2..7}
    c = ctx(3)
    count = 0
    for kap in combinations(range(2, 8), 2):
        i0 = iset((1,) + kap)
        j0 = complement_finite(7, i0)
        rec = one(grad2_batch, c, i0, kap, j0[0], j0[1])
        assert rec.residual < GRAD_TOL, rec.bindings
        count += 1
    assert count == 15


def test_appendix_b_first_relation_characteristic_form(ctx):
    c = ctx(3)
    eng = c.engine

    def th(s):
        return eng.theta(char_from_string(s))

    def gr(s):
        return eng.theta_deriv(char_from_string(s), 1).entries

    lhs = gr("[011/101]") * th("[000/101]") * th("[111/011]") * th("[100/011]")
    rhs = th("[011/111]") * th("[000/111]") * th("[100/001]") * gr("[111/001]") - th(
        "[101/111]"
    ) * th("[110/111]") * th("[010/001]") * gr("[001/001]")
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


def test_grad2_j_choice_independence(ctx, one):
    c = ctx(3)
    i0 = (1, 2, 3)
    recs = [one(grad2_batch, c, i0, (1, 3), jm, jn) for jm, jn in [(4, 5), (5, 6), (4, 7), (6, 7)]]
    assert all(r.residual < GRAD_TOL for r in recs)


# --- three/four-term relations ---------------------------------------------

def test_grad3_genus2_closing_instance(ctx, one):
    # theta^{14}theta^{15}theta^{23} d th^{1} - theta^{24}theta^{25}theta^{13} d th^{2}
    #   + theta^{34}theta^{35}theta^{12} d th^{3} = 0
    c = ctx(2)

    def t(*s):
        return c.const(s)

    lhs = (
        t(1, 4) * t(1, 5) * t(2, 3) * c.grads(_mask((1,)))
        - t(2, 4) * t(2, 5) * t(1, 3) * c.grads(_mask((2,)))
        + t(3, 4) * t(3, 5) * t(1, 2) * c.grads(_mask((3,)))
    )
    scale = max(np.max(np.abs(t(1, 4) * t(1, 5) * t(2, 3) * c.grads(_mask((1,))))), 1e-300)
    assert np.max(np.abs(lhs)) < 1e-8 * scale
    rec = one(grad3_batch, c, (), (1, 2, 3), 4, 5)
    assert rec.residual < GRAD_TOL


def test_grad3_genus3_closing_instance(ctx, one):
    # theta^{267}theta^{257}theta^{347} d th^{12} - theta^{367}theta^{357}theta^{247} d th^{13}
    #   + theta^{467}theta^{457}theta^{237} d th^{14} = 0
    c = ctx(3)

    def t(*s):
        return c.const(s)

    lhs = (
        t(2, 6, 7) * t(2, 5, 7) * t(3, 4, 7) * c.grads(_mask((1, 2)))
        - t(3, 6, 7) * t(3, 5, 7) * t(2, 4, 7) * c.grads(_mask((1, 3)))
        + t(4, 6, 7) * t(4, 5, 7) * t(2, 3, 7) * c.grads(_mask((1, 4)))
    )
    scale = np.max(np.abs(t(2, 6, 7) * t(2, 5, 7) * t(3, 4, 7) * c.grads(_mask((1, 2)))))
    assert np.max(np.abs(lhs)) < 1e-8 * scale
    rec = one(grad3_batch, c, (1,), (2, 3, 4), 6, 5)
    assert rec.residual < GRAD_TOL


def test_grad3_canonicalization_of_kappas(ctx, one):
    # a row holds the kappas as one mask, so the order they are listed in
    # does not change the residual
    c = ctx(3)
    rec = one(grad3_batch, c, (1,), (2, 3, 4), 6, 5)
    assert one(grad3_batch, c, (1,), (3, 2, 4), 6, 5).residual == rec.residual
    rec2 = one(grad3_batch, c, (1,), (2, 3, 4), 6, 5)
    assert rec.residual == rec2.residual


def test_grad3_with_infinity_kappa(ctx, one):
    rec = one(grad3_batch, ctx(2), (), (0, 2, 4), 3, 5)
    assert rec.residual < GRAD_TOL


def test_grad4_and_regrouped_variant(ctx, one):
    c = ctx(3)
    rec = one(grad4_batch, c, (), (1, 2, 3, 4, 5), 6, 7, (1, 2), (1, 3), (2, 3), (4, 5))
    assert rec.residual < GRAD_TOL
    assert "sigma3/sigma1" in rec.notes
    k = (1, 2, 3, 4, 5)
    rec_b = one(grad4_batch, c, (), k, 6, 7, (2, 3), (1, 4), (2, 5), (3, 5))
    assert rec_b.residual < GRAD_TOL


def test_grad4_with_infinity(ctx, one):
    rec = one(grad4_batch, ctx(3), (), (0, 1, 2, 3, 4), 5, 6, (0, 1), (0, 2), (1, 2), (3, 4))
    assert rec.residual < GRAD_TOL


def test_gradn_specializations(ctx, one):
    c = ctx(3)
    # r = 2 is the three-term relation
    r2 = one(gradn_batch, c, (1,), (2, 3, 4), 6, 5)
    g3 = one(grad3_batch, c, (1,), (2, 3, 4), 6, 5)
    assert r2.residual < GRAD_TOL and g3.residual < GRAD_TOL
    # r = 3 is the four-term relation
    r3 = one(gradn_batch, c, (), (1, 2, 3, 4, 5), 6, 7)
    assert r3.residual < GRAD_TOL


# --- rank of collections ----------------------------------------------------

def rank_record(c, sets, degenerate=0):
    """The RANK record of one collection, from a one-row batch."""
    return rank_batch(c, np.array([[degenerate] + [_mask(s) for s in sets]]))[0]


def test_rank_three_sets_sharing_g2_subset(ctx):
    rec = rank_record(ctx(3), [(1, 2), (1, 3), (1, 4)])
    assert (rec.notes, rec.residual) == ("observed 2, predicted 2", 0.0)
    assert rec.bindings == {"sets": ((1, 2), (1, 3), (1, 4))}


def test_rank_basis_family(ctx):
    for g in (2, 3, 4):
        c = ctx(g)
        i0 = tuple(range(1, g + 1))
        sets = [tuple(x for x in i0 if x != k) for k in i0]
        assert rank_record(c, sets).notes == f"observed {g}, predicted {g}"


def test_rank_degenerate_family(ctx):
    # intersection of cardinality g-4 but only three spanning vectors
    c = ctx(4)
    sets = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (7, 8, 9)]
    rec = rank_record(c, sets, degenerate=1)
    assert rec.notes == "degenerate family: observed 3, predicted 3 (want 3)"
    assert rec.residual == 0.0 and rec.bindings["family"] == "degenerate"


def test_rank_random_collections_match(ctx, g=3):
    # one batch of collections of 2 to 5 sets, padded with -1
    c = ctx(g)
    parts = [_mask(p.part) for p in enumerate_partitions(g, 1)]
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(50):
        size = int(rng.integers(2, 6))
        idx = rng.choice(len(parts), size=size, replace=False)
        rows.append([0] + [parts[i] for i in idx] + [-1] * (5 - size))
    for rec in rank_batch(c, np.array(rows)):
        obs, pred = rec.notes.split(", ")
        assert obs.split()[1] == pred.split()[1], rec.bindings
        assert rec.residual == 0.0


def test_rank_rejects_wrong_multiplicity(ctx):
    with pytest.raises(ValueError, match="multiplicity-1"):
        rank_record(ctx(2), [(1, 2)])


def test_predicted_rank_pure():
    # pairs are independent, triples sharing a (g-2)-set are not
    g = 3
    for f in (lambda *sets: ref_collection_rank(g, [frozenset(s) for s in sets]),
              lambda *sets: int(predicted_collection_rank(g, np.array([_mask(s) for s in sets])))):
        assert f((0, 1), (0, 2)) == 2
        assert f((0, 1), (0, 2), (0, 3)) == 2
        assert f((0, 1), (0, 2), (1, 2)) == 3
        assert f((0, 1), (0, 1), (0, 2)) == 2  # a repeated part counts once


@pytest.mark.parametrize("g", range(2, 7))
def test_predicted_rank_on_masks_matches_the_set_search(g):
    # every RANK collection of seeds 1-3, as the run's full-part masks
    for seed in (1, 2, 3):
        cfg = SuiteConfig(spec=random_curve(g, seed), seed=seed)
        binds = FAMILIES["RANK"].bindings(g, cfg, _family_rng(cfg, "RANK"))
        for row in binds[:, 1:]:
            parts = row[row >= 0]
            full = parts | (np.bitwise_count(parts) % 2 != (g + 1) % 2)
            sets = [frozenset(i for i in range(2 * g + 2) if m >> i & 1) for m in full.tolist()]
            assert predicted_collection_rank(g, full) == ref_collection_rank(g, sets), (seed, sets)


# --- quadratic and cubic representations ------------------------------------

def test_hessian_all_35_representations_g3(ctx, one):
    c = ctx(3)
    target = c.deriv((), 2).entries
    for i0 in combinations(range(1, 8), 3):
        j0 = complement_finite(7, i0)
        rec = one(derivative_batch, c, i0, i0, j0[0], j0[1])
        assert rec.residual < 1e-6, rec.bindings
    assert np.max(np.abs(target)) > 0


def test_appendix_e_genus3_instances(ctx, one):
    c = ctx(3)
    assert one(derivative_batch, c, (1, 2, 3), (1, 2, 3), 6, 5).residual < 1e-6
    assert one(derivative_batch, c, (1, 2, 4), (1, 2, 4), 6, 5).residual < 1e-6


def test_appendix_e_genus4_instances(ctx, one):
    c = ctx(4)
    # d^2 theta^{iota} via K of size 3, iota = 1 and 2
    i0 = (1, 2, 3, 4)
    assert one(derivative_batch, c, i0, (2, 3, 4), 5, 6).residual < 1e-6
    assert one(derivative_batch, c, i0, (1, 3, 4), 5, 6).residual < 1e-6
    # d^2 theta^{} via all four dropped indices
    assert one(derivative_batch, c, i0, i0, 5, 6).residual < 1e-6


def test_hessian_k3_and_k4_sampled_g4(ctx, one):
    c = ctx(4)
    rng = np.random.default_rng(5)
    fin = list(range(1, 10))
    for _ in range(10):
        i0 = tuple(sorted(rng.choice(fin, size=4, replace=False).tolist()))
        j0 = complement_finite(9, i0)
        for ks in (3, 4):
            k = tuple(sorted(rng.choice(i0, size=ks, replace=False).tolist()))
            rec = one(derivative_batch, c, i0, k, j0[0], j0[1])
            assert rec.residual < 1e-6, rec.bindings


def test_hessian_representation_equivalence(ctx, one):
    c = ctx(4)
    # K = 3 swap (Prop LD3 shape): partitions (I+{p1,p2,p3}) and (I+{p1,p2,p4})
    ia, ka = (1, 2, 3, 5), (2, 3, 5)
    ib, kb = (1, 2, 3, 7), (2, 3, 7)
    rec = one(hessian_equiv_batch, c, _mask(ia), _mask(ka), 4, 6, _mask(ib), _mask(kb), 4, 6)
    assert rec.residual < 1e-8
    rec = one(hessian_equiv_batch, c, _mask(ia), _mask(ka), 4, 6, _mask(ia), _mask(ka), 4, 6)
    assert rec.residual == 0.0


def test_hessian_equiv_rejects_mismatched_targets(ctx, one):
    c = ctx(4)
    with pytest.raises(ValueError, match="same characteristic"):
        one(hessian_equiv_batch, c, _mask((1, 2, 3, 5)), _mask((2, 3, 5)), 4, 6,
            _mask((1, 2, 3, 7)), _mask((1, 3, 7)), 4, 6)


def test_hessian_j_choice_independence(ctx):
    c = ctx(3)
    va = representation_tensor(c, (1, 2, 3), (1, 2, 3), 4, 5)
    vb = representation_tensor(c, (1, 2, 3), (1, 2, 3), 6, 7)
    assert np.max(np.abs(va - vb)) < 1e-8 * np.max(np.abs(va))


def test_hessian_rank_full_at_g3(ctx, one):
    rec = one(hessian_rank_batch, ctx(3), _mask(()))
    assert rec.passed


def test_hessian_rank_three_at_g4(ctx, one):
    c = ctx(4)
    for part in enumerate_partitions(4, 2):
        rec = one(hessian_rank_batch, c, _mask(part.part))
        assert rec.passed, (part, rec.notes)


def test_hessian_rank_rejects_wrong_multiplicity(ctx, one):
    with pytest.raises(ValueError, match="multiplicity-2"):
        one(hessian_rank_batch, ctx(4), _mask((1, 2, 3)))


def test_third_deriv_repr_g5(ctx, one):
    c = ctx(5)
    k5 = (1, 2, 3, 4, 5)
    assert one(derivative_batch, c, k5, k5, 6, 7).residual < 1e-4
    k5 = (2, 3, 5, 8, 10)
    assert one(derivative_batch, c, k5, k5, 1, 6).residual < 1e-4


def test_third_deriv_j_choice_independence(ctx):
    c = ctx(5)
    va = representation_tensor(c, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5), 6, 7)
    vb = representation_tensor(c, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5), 8, 9)
    assert np.max(np.abs(va - vb)) < 1e-6 * np.max(np.abs(va))


def test_third_deriv_tensor_symmetry(ctx):
    c = ctx(5)
    pred = representation_tensor(c, (1, 2, 3, 4, 5), (1, 2, 3, 4, 5), 6, 7)
    assert np.allclose(pred, np.transpose(pred, (1, 0, 2)))
    assert np.allclose(pred, np.transpose(pred, (2, 1, 0)))


@pytest.mark.slow
def test_third_deriv_k6_at_g6(ctx, one):
    c = ctx(6)
    k6 = (1, 2, 4, 6, 9, 11)
    rec = one(derivative_batch, c, k6, k6, 3, 7)
    assert rec.residual < 1e-4


def test_conjecture_specializes_to_hessian(ctx, one):
    # CONJ_M's own bindings at g = 5: I0 = (1..5), K its first |K| indices
    c = ctx(5)
    i0 = (1, 2, 3, 4, 5)
    for m, ksize in ((2, 3), (2, 4), (3, 5)):
        k = i0[:ksize]
        conj = one(conjecture_batch, c, i0, k, 6, 7)
        rec = one(derivative_batch, c, i0, k, 6, 7)
        assert conj.bindings == {**rec.bindings, "m": m}
        assert conj.residual == rec.residual
        assert rec.residual < {2: 1e-6, 3: 1e-4}[m]
        pred = representation_tensor(c, i0, k, 6, 7)[None]
        target = c.deriv(drop(i0, *k), m).entries[None]
        assert conj.residual == min(
            _match_residuals(pred, target)[0], _match_residuals(-pred, target)[0]
        )


def test_derivative_repr_record_ids(ctx, one):
    # the record id and the tolerance key come from |K|
    c = ctx(6)
    i0 = (1, 2, 3, 4, 5, 6)
    for ksize, (rid, tol) in {
        3: ("HESS_K3", 1e-6), 4: ("HESS_K4", 1e-6), 5: ("D3_K5", 1e-4), 6: ("D3_K6", 1e-4),
    }.items():
        rec = one(derivative_batch, c, i0, i0[:ksize], 7, 8)
        assert (rec.relation_id, rec.tolerance) == (rid, tol)
        assert rec.bindings == {"I0": i0, "K": i0[:ksize], "j_m": 7, "j_n": 8}
        table = {**DEFAULT_TOLERANCES, rid: 0.25}
        assert one(derivative_batch, c, i0, i0[:ksize], 7, 8, tol=table).tolerance == 0.25
    for ksize in (1, 2):
        with pytest.raises(ValueError, match=r"\|K\| must be one of \[3, 4, 5, 6\]"):
            one(derivative_batch, c, i0, i0[:ksize], 7, 8)


def entrywise_r_tensor(c, i0, k_set, j_m, j_n, m):
    """Reference R: every entry looks each of its theta constants up anew,
    with the sign (-1)^(sum of 1-based positions), offset by m mod 2 for
    |K| = 2m - 1."""
    kk = len(k_set)
    j0 = complement_finite(c.spec.n_finite, i0)
    denom_base = (c.const(drop(j0, j_m)) * c.const(drop(j0, j_n))) ** (kk - m)
    tensor = np.zeros((kk,) * m, dtype=complex)
    for positions in combinations(range(1, kk + 1), m):
        p_vals = tuple(k_set[t - 1] for t in positions)
        q_vals = tuple(x for x in k_set if x not in p_vals)
        val = float((-1) ** (sum(positions) + (m % 2 if kk == 2 * m - 1 else 0)))
        for pa, pb in combinations(p_vals, 2):
            val *= c.const(replace(i0, (pa, pb), (j_n, j_m)))
        for qa, qb in combinations(q_vals, 2):
            val *= c.const(replace(i0, (qa, qb), (j_n, j_m)))
        if kk == 2 * m:
            for p in p_vals:
                val *= c.const(replace(j0, (j_n, j_m), (p,)))
        for q in q_vals:
            val *= c.const(replace(i0, (q,), (j_m,))) * c.const(replace(i0, (q,), (j_n,)))
            if kk == 2 * m - 1:
                val *= c.const(replace(j0, (j_n, j_m), (q,)))
            for p in p_vals:
                val /= c.const(replace(i0, (p, q), (j_n, j_m)))
        val /= denom_base
        for perm in permutations(t - 1 for t in positions):
            tensor[perm] = val
    return tensor


@pytest.mark.parametrize("g", [4, 5, 6])
def test_general_r_tensor_matches_entrywise_lookup(ctx, g):
    # m = 2 with |K| = 4 is Schottky's 4 x 4 R-hat; |K| <= g since K lies in I0.
    # The batch multiplies the numerator and the denominator factors
    # separately, the reference one factor at a time, so they round
    # differently: over 30 random bindings per (m, |K|) at g = 4..6 the
    # entries differed by at most 8.6e-16 relative (about 8 units of 2^-53).
    c = ctx(g)
    n = 2 * g + 1
    rng = np.random.default_rng(g)
    cases = [(m, kk) for m, kk in ((2, 3), (2, 4), (3, 5), (3, 6)) if kk <= g]
    for m, kk in cases:
        for _ in range(3):
            i0 = tuple(sorted(rng.choice(np.arange(1, n + 1), size=g, replace=False).tolist()))
            k = tuple(sorted(rng.choice(i0, size=kk, replace=False).tolist()))
            j_m, j_n = rng.choice(complement_finite(n, i0), size=2, replace=False).tolist()
            got = general_r_tensor(c, np.array([[_mask(i0), _mask(k), j_m, j_n]]))[0]
            want = entrywise_r_tensor(c, i0, k, j_m, j_n, m)
            assert np.array_equal(got == 0, want == 0), (i0, k, j_m, j_n)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (i0, k, j_m, j_n)


def test_conjecture_m4_needs_genus7(ctx, one):
    # m = 4 takes |K| = 7
    with pytest.raises(ValueError, match="genus >= 7"):
        one(conjecture_batch, ctx(5), tuple(range(1, 8)), tuple(range(1, 8)), 8, 9)


# --- Riemann-Jacobi ----------------------------------------------------------

@pytest.mark.parametrize("g", [2, 3])
def test_riemann_jacobi(ctx, one, g):
    c = ctx(g)
    for i0 in list(combinations(range(1, 2 * g + 2), g))[:5]:
        rec = one(rj_det_batch, c, i0)
        assert rec.residual < 1e-6, rec.bindings


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_riemann_jacobi_off_the_curve(g):
    # negative control: the theta constants of a tau = i Y that is no
    # curve's, Y = a a^t / g + 0.5 I, on the rows RJ_DET draws at genus g.
    # At g <= 3 the identity holds there too (worst 2.4e-11 at seeds 1-5); from
    # g = 4 on it holds only on the curve, and every draw misses it by
    # 0.07 to 2, far past the 1e-6 tolerance
    for seed in range(1, 6):
        a = np.random.default_rng([g, seed]).normal(size=(g, g))
        spec = random_curve(g, seed)
        cfg = SuiteConfig(spec=spec, seed=seed)
        rows = FAMILIES["RJ_DET"].bindings(g, cfg, _family_rng(cfg, "RJ_DET"))
        engine = ThetaEngine(1j * (a @ a.T / g + 0.5 * np.eye(g)), order=1)
        worst = max(r.residual for r in rj_det_batch(CurveContext(spec, None, engine), rows))
        if g <= 3:
            assert worst < 1e-10, (seed, worst)
        else:
            assert worst > 0.05, (seed, worst)


def test_riemann_jacobi_row_swap_modulus_invariant(ctx):
    c = ctx(2)
    i0 = (1, 2)
    mat = np.stack([c.grads(_mask((2,))), c.grads(_mask((1,)))], axis=1)
    swapped = mat[:, ::-1]
    assert abs(abs(np.linalg.det(mat)) - abs(np.linalg.det(swapped))) < 1e-12
    assert np.linalg.det(mat) == pytest.approx(-np.linalg.det(swapped))


# --- record assembly ---------------------------------------------------------

def test_make_records_spreads_scalars_and_keeps_per_record_lists():
    one = make_records("EKLM", np.array([0.1, 0.2]), 1e-8, n=np.array([1, 2]))
    assert [(r.relation_id, r.tolerance, r.notes) for r in one] == [("EKLM", 1e-8, "")] * 2
    per = make_records(["HESS_K3", "D3_K5"], [0.1, 0.2], [1e-6, 1e-4], notes=["a", "b"],
                       n=np.array([1, 2]))
    assert [(r.relation_id, r.tolerance, r.notes) for r in per] == [
        ("HESS_K3", 1e-6, "a"), ("D3_K5", 1e-4, "b")]
    assert [r.residual for r in per] == [0.1, 0.2]
    assert all(type(r.residual) is float for r in [*one, *per])


def test_make_records_raises_a_failed_precondition_to_one():
    recs = make_records("GRAD4", np.array([0.2, 3.0, 0.2]), 1e-8,
                        precondition_failed=np.array([True, True, False]), n=np.arange(3))
    assert [r.residual for r in recs] == [1.0, 3.0, 0.2]


def test_make_records_binds_python_values():
    recs = make_records(
        "GRAD4", np.zeros(2), 1e-8, masks=("pairs",),
        j=np.array([4, 5]), I=np.array([[1, 2], [3, 4]]),
        pairs=np.array([[0b11, 0b1100], [0b110000, 0b11000000]]), B=[(1,), (2, 3)],
    )
    assert [r.bindings for r in recs] == [
        {"j": 4, "I": (1, 2), "pairs": ((0, 1), (2, 3)), "B": (1,)},
        {"j": 5, "I": (3, 4), "pairs": ((4, 5), (6, 7)), "B": (2, 3)},
    ]
    assert list(recs[0].bindings) == ["j", "I", "pairs", "B"]  # the text report's order
    for rec in recs:
        assert type(rec.bindings["j"]) is int
        assert all(type(i) is int for i in rec.bindings["I"])
        assert all(type(i) is int for pair in rec.bindings["pairs"] for i in pair)


def test_make_records_one_slot_and_many_slots_agree():
    masks = np.array([[1, 2], [3, 4], [5, 6]])
    one = make_records("RJ_DET", np.zeros(3), 1e-6, I0=masks)
    many = make_records("RJ_DET", np.zeros(3), 1e-6, I0=masks, m=np.array([2, 2, 2]))
    assert [r.bindings for r in one] == [{"I0": (1, 2)}, {"I0": (3, 4)}, {"I0": (5, 6)}]
    assert [r.bindings for r in many] == [{**r.bindings, "m": 2} for r in one]
    # a slot or a residual of the wrong length is refused on either path
    with pytest.raises(ValueError):
        make_records("RJ_DET", np.zeros(3), 1e-6, I0=masks, m=np.array([2, 2]))
    with pytest.raises(ValueError):
        make_records("RJ_DET", np.zeros(2), 1e-6, I0=masks)
