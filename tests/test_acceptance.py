"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configured elsewhere.  Criteria cover period
sanity, the characteristic dictionary, theta vanishing orders, the three
Thomae formula families, the gradient relation families with rank
predictions, quadratic/cubic representations of higher derivative theta
constants, Schottky-type relations, the Riemann-Jacobi determinant, and the
runtime/reproducibility envelope.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from oracles import complement_finite, enumerate_partitions, parity
from thomae_lab.characteristics import char_of_set
from thomae_lab.context import CurveContext
from thomae_lab.harness import DEFAULT_TOLERANCES, SuiteConfig, _mask, random_curve, run_suite
from thomae_lab.indexsets import iset
from thomae_lab.periods import branch_point_char_residuals, compute_periods
from thomae_lab.relations import (
    GRAD4_PAIRS,
    REPRESENTATION_RECORDS,
    derivative_batch,
    grad2_batch,
    grad3_batch,
    grad4_batch,
    hessian_equiv_batch,
    hessian_rank_batch,
    rank_batch,
    rj_det_batch,
)
from thomae_lab.schottky import CASE_IDS, appendix_f_batch, schottky_r_batch
from thomae_lab.thomae import first_thomae_rhs, general_thomae_batch

pytestmark = pytest.mark.acceptance


def repr_residual(one, c, i0, k_set, j_m, j_n):
    """The residual of the derivative-representation record of one binding."""
    tol = DEFAULT_TOLERANCES[REPRESENTATION_RECORDS[len(k_set)]]
    return one(derivative_batch, c, i0, k_set, j_m, j_n, tolerance=tol).residual


def thomae_forms(c, a, k):
    """The direct and the ratio-form general Thomae tensor of one (A, K),
    from a one-row batch."""
    direct, ratio = general_thomae_batch(c, np.array([_mask(a)]), np.array([_mask(k)]))
    return direct[0], ratio[0]


@pytest.fixture(scope="module")
def announce(request):
    cap = request.config.pluginmanager.getplugin("capturemanager")

    def _print(line):
        if cap is not None:
            with cap.global_and_fixture_disabled():
                print(line)
        else:
            print(line)

    return _print


def report(announce, num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] acceptance {num:>2}: {desc}"
    if detail:
        line += f"  -- {detail}"
    announce(line)
    assert ok, line


def test_criterion_01_period_sanity(announce):
    worst_sym, worst_stab, slowest = 0.0, 0.0, 0.0
    for g in (2, 3, 4, 5):
        for seed in range(5):
            spec = random_curve(g, seed)
            t0 = time.perf_counter()
            p = compute_periods(spec, 96)
            dt = time.perf_counter() - t0
            if g <= 4:
                slowest = max(slowest, dt)
                assert dt <= 30.0, (g, seed, dt)
            tau = p.tau
            worst_sym = max(worst_sym, np.max(np.abs(tau - tau.T)) / np.max(np.abs(tau)))
            assert np.min(np.linalg.eigvalsh(tau.imag)) > 0, (g, seed)
            p2 = compute_periods(spec, 192)
            worst_stab = max(
                worst_stab, np.max(np.abs(p.tau - p2.tau)) / np.max(np.abs(p2.tau))
            )
    ok = worst_sym < 1e-9 and worst_stab < 1e-10
    report(
        announce, 1, "period sanity, 5 random curves per genus 2..5", ok,
        f"tau asymmetry {worst_sym:.1e}, order-doubling {worst_stab:.1e}, "
        f"slowest g<=4 curve {slowest:.2f}s",
    )


def test_criterion_02_characteristic_dictionary(announce, ctx):
    for g in (2, 3, 4, 5):
        seen = set()
        for m in range((g + 1) // 2 + 1):
            parts = list(enumerate_partitions(g, m))
            # closed form: C(2g+1, g) at m = 0, else C(2g+2, g+1-2m)
            count = math.comb(2 * g + 1, g) if m == 0 else math.comb(2 * g + 2, g + 1 - 2 * m)
            assert len(parts) == count
            for p in parts:
                c = char_of_set(g, p.part)
                assert c not in seen
                seen.add(c)
                assert parity(c) == ("even" if m % 2 == 0 else "odd")
        assert len(seen) == 2 ** (2 * g)
    worst_abel = 0.0
    for g in (2, 3, 4):
        c = ctx(g)
        res = branch_point_char_residuals(c.spec, c.periods)
        worst_abel = max(worst_abel, max(res.values()))
    ok = worst_abel < 1e-8
    report(
        announce, 2, "characteristic dictionary + Abel-map cross-check", ok,
        f"bijection/parity/counts exhaustive g=2..5; worst half-period residual {worst_abel:.1e}",
    )


def test_criterion_03_vanishing_order(announce, ctx):
    worst_low, worst_diag = 0.0, ""
    for g in (2, 3, 4, 5):
        c = ctx(g)
        for m in range(min((g + 1) // 2, 3) + 1):
            for p in enumerate_partitions(g, m):
                ch = char_of_set(g, p.part)
                for order in range(m):
                    t = c.engine.theta_deriv(ch, order)
                    r = np.max(np.abs(t.entries)) / t.scale
                    if r > worst_low:
                        worst_low, worst_diag = r, f"g={g} {p} order {order}"
                t = c.engine.theta_deriv(ch, m)
                assert np.max(np.abs(t.entries)) > 1e-6 * t.scale, (g, p)
    ok = worst_low < 1e-8
    report(
        announce, 3, "vanishing order exhaustive g=2..5, m<=3", ok,
        f"worst sub-order residual {worst_low:.1e} ({worst_diag}); order-m tensors nonzero",
    )


def test_criterion_04_thomae_one(announce, ctx):
    # the predicted phase is +1
    worst_mod, worst_phase, counts = 0.0, 0.0, []
    for g in (2, 3, 4):
        c = ctx(g)
        sets = list(combinations(range(1, 2 * g + 2), g))
        counts.append(len(sets))
        for i0 in sets:
            ratio = c.const(i0) / first_thomae_rhs(c, i0)
            worst_mod = max(worst_mod, abs(abs(ratio) - 1.0))
            worst_phase = max(worst_phase, abs(ratio - 1.0))
    ok = worst_mod < 1e-6 and worst_phase < 1e-6 and counts == [10, 35, 126]
    report(
        announce, 4, "first Thomae, all even non-singular characteristics g=2..4", ok,
        f"counts {counts}, worst modulus {worst_mod:.1e}, worst |ratio - 1| {worst_phase:.1e}",
    )


def test_criterion_05_thomae_two(announce, ctx):
    worst, n = 0.0, 0
    for g in (2, 3, 4):
        c = ctx(g)
        for p in enumerate_partitions(g, 1):
            lhs = c.grads(_mask(p.part))
            jm_fin = complement_finite(c.spec.n_finite, p.part)
            rhs = thomae_forms(c, p.part, jm_fin[: g - len(p.part)])[0]
            # the predicted phase is folded into rhs
            k = int(np.argmax(np.abs(lhs)))
            resid = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))
            worst = max(worst, resid, abs(lhs[k] / rhs[k] - 1.0))
            n += 1
    ok = worst < 1e-6
    report(
        announce, 5, "second Thomae, all odd non-singular characteristics g=2..4", ok,
        f"{n} characteristics x all components, worst residual {worst:.1e}",
    )


def test_criterion_06_general_thomae(announce, ctx):
    worst = {"m2": 0.0, "m3": 0.0, "k": 0.0, "ratio": 0.0}
    for g, m in ((3, 2), (4, 2), (5, 3)):
        c = ctx(g)
        for p in enumerate_partitions(g, m):
            a = p.part
            lhs = c.deriv(a, m).entries
            jm_fin = complement_finite(c.spec.n_finite, a)
            ksize = g - len(a)
            kset = jm_fin[:ksize]
            pred, ratio = thomae_forms(c, a, kset)
            flat = int(np.argmax(np.abs(lhs)))
            # the predicted phase is folded into pred
            resid = max(float(np.max(np.abs(lhs - pred)) / np.max(np.abs(lhs))),
                        abs(lhs.flat[flat] / pred.flat[flat] - 1.0))
            worst["m2" if m == 2 else "m3"] = max(worst["m2" if m == 2 else "m3"], resid)
            entry = np.unravel_index(flat, lhs.shape)
            kalt = jm_fin[-ksize:]
            v1 = pred[entry]
            v2 = thomae_forms(c, a, kalt)[0][entry]
            worst["k"] = max(worst["k"], abs(v1 - v2) / float(np.max(np.abs(pred))))
            i0 = iset(a + kset)
            r1 = complex(ratio[entry])
            r2 = v1 / first_thomae_rhs(c, i0)
            worst["ratio"] = max(worst["ratio"], abs(r1 - r2) / max(abs(r1), abs(r2)))
    ok = (
        worst["m2"] < 1e-5 and worst["m3"] < 1e-4
        and worst["k"] < 1e-8 and worst["ratio"] < 1e-10
    )
    report(
        announce, 6, "general Thomae m=2 (g=3,4), m=3 (g=5), K-independence, ratio form", ok,
        f"m2 {worst['m2']:.1e}, m3 {worst['m3']:.1e}, K-indep {worst['k']:.1e}, "
        f"ratio {worst['ratio']:.1e}",
    )


def test_criterion_07_appendix_a_b(announce, ctx, one):
    worst_a = 0.0
    c2 = ctx(2)
    for i0 in combinations(range(1, 6), 2):
        j0 = complement_finite(5, i0)
        worst_a = max(worst_a, one(grad2_batch, c2, i0, i0[:2], j0[0], j0[1]).residual)
    worst_b, count_b = 0.0, 0
    c3 = ctx(3)
    for kap in combinations(range(2, 8), 2):
        i0 = iset((1,) + kap)
        j0 = complement_finite(7, i0)
        worst_b = max(worst_b, one(grad2_batch, c3, i0, kap, j0[0], j0[1]).residual)
        count_b += 1
    ok = worst_a < 1e-8 and worst_b < 1e-8 and count_b == 15
    report(
        announce, 7, "gradient decompositions: 10 genus-2 and 15 genus-3 instances", ok,
        f"worst genus-2 {worst_a:.1e}, worst genus-3 {worst_b:.1e}",
    )


def test_criterion_08_grad34_and_rank(announce, ctx, one):
    worst = 0.0
    c2, c3 = ctx(2), ctx(3)
    # closing instances of the three-term relation
    worst = max(worst, one(grad3_batch, c2, (), (1, 2, 3), 4, 5).residual)
    worst = max(worst, one(grad3_batch, c3, (1,), (2, 3, 4), 6, 5).residual)
    # four-term relation and the regrouped variant
    k = (1, 2, 3, 4, 5)
    worst = max(worst, one(grad4_batch, c3, (), k, 6, 7, (1, 2), (1, 3), (2, 3), (4, 5)).residual)
    worst = max(
        worst, one(grad4_batch, c3, (), k, 6, 7, (2, 3), (1, 4), (2, 5), (3, 5)).residual
    )
    # exhaustive binding enumeration (one j-pair each) at g = 2..4
    n3 = n4 = 0
    for g in (2, 3, 4):
        c = ctx(g)
        all_idx = set(range(2 * g + 2))
        for i_set in combinations(range(1, 2 * g + 2), g - 2):
            rest = sorted(all_idx - set(i_set))
            for kap in combinations(rest, 3):
                j_set = [x for x in rest if x not in kap and x != 0]
                worst = max(worst, one(grad3_batch, c, i_set, kap, j_set[0], j_set[1]).residual)
                n3 += 1
        if g >= 3:
            for i_set in combinations(range(1, 2 * g + 2), g - 3):
                rest = sorted(all_idx - set(i_set))
                for kap in combinations(rest, 5):
                    j_set = [x for x in rest if x not in kap and x != 0]
                    if len(j_set) < 2:
                        continue
                    pairs = [tuple(kap[a] for a in pair) for pair in GRAD4_PAIRS]
                    worst = max(
                        worst, one(grad4_batch, c, i_set, kap, j_set[0], j_set[1], *pairs).residual
                    )
                    n4 += 1
    # genus-5 sample
    c5 = ctx(5)
    rng = np.random.default_rng(5)
    for _ in range(10):
        pick = sorted(rng.choice(range(1, 12), size=3 + 3, replace=False).tolist())
        i_set, kap = tuple(pick[:3]), tuple(pick[3:])
        j_set = [x for x in range(12) if x not in pick and x != 0]
        worst = max(worst, one(grad3_batch, c5, i_set, kap, j_set[0], j_set[1]).residual)
    # rank theorem: 200 random collections per genus plus the degenerate family
    mismatches = 0
    for g in (3, 4, 5):
        c = ctx(g)
        parts = [_mask(p.part) for p in enumerate_partitions(g, 1)]
        rng = np.random.default_rng(100 + g)
        rows = []
        for _ in range(200):
            size = int(rng.integers(2, min(g + 3, 7)))
            idx = rng.choice(len(parts), size=size, replace=False)
            rows.append([0] + [parts[i] for i in idx] + [-1] * (6 - size))
        mismatches += sum(rec.residual != 0.0 for rec in rank_batch(c, np.array(rows)))
    c4 = ctx(4)
    deg = rank_batch(c4, np.array([[1] + [_mask(s) for s in
                                          ((1, 2, 3), (1, 2, 4), (1, 2, 5), (7, 8, 9))]]))[0]
    obs = int(deg.notes.split("observed ")[1].split(",")[0])
    degenerate_ok = deg.residual == 0.0 and obs == 3
    ok = worst < 1e-8 and mismatches == 0 and degenerate_ok
    report(
        announce, 8, "three/four-term gradient relations + rank prediction", ok,
        f"worst residual {worst:.1e} over {n3} GRAD3 + {n4} GRAD4 exhaustive g<=4 bindings; "
        f"600 random collections, {mismatches} rank mismatches; degenerate family rank {obs}",
    )


def test_criterion_09_hessian_representation(announce, ctx, one):
    worst = 0.0
    c3 = ctx(3)
    for i0 in combinations(range(1, 8), 3):
        j0 = complement_finite(7, i0)
        worst = max(worst, repr_residual(one, c3, i0, i0, j0[0], j0[1]))
    worst = max(worst, repr_residual(one, c3, (1, 2, 3), (1, 2, 3), 6, 5))
    worst = max(worst, repr_residual(one, c3, (1, 2, 4), (1, 2, 4), 6, 5))
    c4 = ctx(4)
    rng = np.random.default_rng(9)
    fin = list(range(1, 10))
    for _ in range(12):
        i0 = tuple(sorted(rng.choice(fin, size=4, replace=False).tolist()))
        j0 = complement_finite(9, i0)
        for ks in (3, 4):
            kk = tuple(sorted(rng.choice(i0, size=ks, replace=False).tolist()))
            worst = max(worst, repr_residual(one, c4, i0, kk, j0[0], j0[1]))
    worst = max(worst, repr_residual(one, c4, (1, 2, 3, 4), (2, 3, 4), 5, 6))
    worst = max(worst, repr_residual(one, c4, (1, 2, 3, 4), (1, 3, 4), 5, 6))
    worst = max(worst, repr_residual(one, c4, (1, 2, 3, 4), (1, 2, 3, 4), 5, 6))
    worst_eq = one(
        hessian_equiv_batch, c4, _mask((1, 2, 3, 5)), _mask((2, 3, 5)), 4, 6,
        _mask((1, 2, 3, 7)), _mask((2, 3, 7)), 4, 6,
    ).residual
    c5 = ctx(5)
    worst_eq = max(
        worst_eq,
        one(
            hessian_equiv_batch, c5, _mask((1, 2, 3, 4, 6)), _mask((1, 3, 4, 6)), 5, 7,
            _mask((1, 2, 3, 4, 8)), _mask((1, 3, 4, 8)), 5, 7,
        ).residual,
    )
    ok = worst < 1e-6 and worst_eq < 1e-8
    report(
        announce, 9, "Hessian quadratic representation (g=3 all 35, g=4 K=3/4, instances)", ok,
        f"worst representation {worst:.1e}, worst equivalence {worst_eq:.1e}",
    )


def test_criterion_10_hessian_rank(announce, ctx, one):
    c4 = ctx(4)
    ok4 = all(one(hessian_rank_batch, c4, _mask(p.part)).passed for p in enumerate_partitions(4, 2))
    c5 = ctx(5)
    parts5 = list(enumerate_partitions(5, 2))[:10]
    ok5 = all(one(hessian_rank_batch, c5, _mask(p.part)).passed for p in parts5)
    ok3 = one(hessian_rank_batch, ctx(3), _mask(())).passed
    ok = ok3 and ok4 and ok5
    report(
        announce, 10, "Hessian rank exactly 3 (g=4 all, g=5 sample), full rank at g=3", ok,
        f"g=4 all 10 multiplicity-2 characteristics, g=5 sample of {len(parts5)}",
    )


def test_criterion_11_third_derivative(announce, ctx, one):
    c5 = ctx(5)
    worst, n = 0.0, 0
    rng = np.random.default_rng(11)
    fin = list(range(1, 12))
    for _ in range(20):
        i0 = tuple(sorted(rng.choice(fin, size=5, replace=False).tolist()))
        j0 = complement_finite(11, i0)
        jm, jn = rng.choice(j0, size=2, replace=False).tolist()
        worst = max(worst, repr_residual(one, c5, i0, i0, int(jm), int(jn)))
        n += 1
    # |K| = 6 demands a partition with the infinity index in its part, i.e.
    # genus >= 6; the smallest admissible instances are checked there.
    c6 = ctx(6)
    k6 = (1, 2, 4, 6, 9, 11)
    worst6 = repr_residual(one, c6, k6, k6, 3, 7)
    n6 = 1
    ok = worst < 1e-4 and worst6 < 1e-4
    report(
        announce, 11, "third-derivative cubic representation (g=5 |K|=5; |K|=6 at g=6)", ok,
        f"{n} sampled |K|=5 bindings, worst {worst:.1e}; {n6} |K|=6 instance, {worst6:.1e}",
    )


def test_criterion_12_schottky(announce, ctx):
    c4, c5 = ctx(4), ctx(5)
    # exact rational identity on 100 random 4-subsets
    rng = np.random.default_rng(12)
    exact_ok = True
    for _ in range(100):
        ps = sorted(rng.choice(range(1, 10), size=4, replace=False).tolist())
        e = [Fraction(c4.spec.branch_points[p - 1]) for p in ps]
        exact_ok &= (e[1] - e[0]) * (e[3] - e[2]) - (e[2] - e[0]) * (e[3] - e[1]) + (
            e[3] - e[0]
        ) * (e[2] - e[1]) == 0
    worst_r, worst_det = 0.0, 0.0
    for c, i0 in ((c4, (1, 2, 3, 4)), (c4, (2, 4, 6, 8)), (c5, (1, 3, 5, 7, 9))):
        j0 = complement_finite(c.spec.n_finite, i0)
        ps = i0[:4]
        recs = schottky_r_batch(c, np.array([[_mask(i0), _mask(ps), *j0[:2]]]))
        worst_r = max(worst_r, recs[0].residual)
        worst_det = max(worst_det, recs[1].residual)
    cases = {
        3: ["schottky.F69G3"],
        4: ["schottky.F69"],
        5: ["schottky.F70", "schottky.G5r1", "schottky.G5r3", "schottky.G5mixed",
            "schottky.G5rank4", "schottky.Ratio45"],
    }
    worst_f = 0.0
    for g, ids in cases.items():
        c = ctx(g)
        for cid in ids:
            rec = appendix_f_batch(c, np.array([[CASE_IDS.index(cid)]]))[0]
            worst_f = max(worst_f, rec.residual)
    ok = exact_ok and worst_r < 1e-8 and worst_det < 1e-10 and worst_f < 1e-7
    report(
        announce, 12, "Schottky: exact a1-a2+a3, det R, degree-8 relation, Appendix F cases", ok,
        f"rational identity exact on 100 subsets; SchottkyR {worst_r:.1e}, "
        f"detR {worst_det:.1e}, cases {worst_f:.1e}",
    )


def test_criterion_13_riemann_jacobi(announce, ctx, one):
    worst = 0.0
    for g in (2, 3):
        c = ctx(g)
        for i0 in list(combinations(range(1, 2 * g + 2), g))[:8]:
            worst = max(worst, one(rj_det_batch, c, i0).residual)
    ok = worst < 1e-6
    report(announce, 13, "Riemann-Jacobi determinant at g=2,3", ok, f"worst {worst:.1e}")


def test_criterion_14_runtime_and_reproducibility(announce):
    t0 = time.perf_counter()
    reports = {}
    for g in (2, 3, 4):
        cfg = SuiteConfig(spec=random_curve(g, 14), seed=14)
        reports[g] = run_suite(cfg)
        assert reports[g].all_passed(), [
            r.as_dict() for r in reports[g].records if not r.passed
        ]
    t_low = time.perf_counter() - t0
    t0 = time.perf_counter()
    cfg5 = SuiteConfig(spec=random_curve(5, 14), seed=14)
    rep5 = run_suite(cfg5)
    t_5 = time.perf_counter() - t0
    assert rep5.all_passed(), [r.as_dict() for r in rep5.records if not r.passed]
    cfg2 = SuiteConfig(spec=random_curve(2, 14), seed=14)
    j1 = run_suite(cfg2).to_json(include_timings=False)
    j2 = run_suite(cfg2).to_json(include_timings=False)
    ok = t_low < 600.0 and t_5 < 3600.0 and j1 == j2
    report(
        announce, 14, "runtime envelope and byte-identical reports", ok,
        f"full g=2..4 suites {t_low:.1f}s (<600s), g=5 suite {t_5:.1f}s (<3600s), "
        f"repeated g=2 reports identical: {j1 == j2}",
    )
