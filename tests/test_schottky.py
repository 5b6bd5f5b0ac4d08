from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from thomae_lab.characteristics import char_of_set, zero_char
from thomae_lab.schottky import (
    CASE_IDS,
    build_goepel,
    coset_product,
    raw_char,
    root_sum_residual,
    schottky_J,
    schottky_triple,
    syzygy_test,
    verify_appendix_f,
    verify_schottky_R,
)


def test_syzygy_trivial_cases():
    z = zero_char(4)
    assert syzygy_test(z, z, z) == "syzygetic"
    a = char_of_set(4, (1, 2, 3, 4))
    assert syzygy_test(a, a, z) == "syzygetic"


def test_achars_triple_is_azygetic():
    a1 = char_of_set(4, (2, 4, 6, 8))
    a2 = char_of_set(4, (2, 4, 6, 9))
    a3 = char_of_set(4, (2, 4, 6, 7))
    assert syzygy_test(a1, a2, a3) == "azygetic"


def test_goepel_f1_element_list():
    grp = build_goepel(4, [(1, 2), (1, 2, 3), (1, 2, 3, 4, 5)])
    elements = sorted(tuple(sorted(e)) for e in grp.elements)
    assert elements == [
        (), (1, 2), (1, 2, 3), (1, 2, 3, 4, 5), (1, 2, 4, 5), (3,), (3, 4, 5), (4, 5),
    ]
    assert grp.rank == 3
    assert grp.is_syzygetic()


def test_goepel_rank_and_errors():
    assert build_goepel(5, [(6, 9, 10, 11)]).rank == 1
    with pytest.raises(ValueError, match="dependent generator"):
        build_goepel(4, [(1, 2), (1, 2)])
    with pytest.raises(ValueError, match="dependent generator"):
        build_goepel(4, [(1, 2), (3, 4), (1, 2, 3, 4)])


def test_raw_char_vs_partition_char():
    # the partition characteristic is the raw sum shifted by [K]
    from thomae_lab.characteristics import char_sum, riemann_char

    g = 4
    s = frozenset({1, 4, 6})
    assert char_of_set(g, s) == char_sum(raw_char(g, s), riemann_char(g))


def test_coset_rejects_singular_member(ctx):
    c = ctx(4)
    grp = build_goepel(4, [(1, 2)])
    # partition {1,3,5,7} shifted by {1,2} gives {2,3,5,7}: fine; but
    # a multiplicity-1 base set must be rejected outright
    with pytest.raises(ValueError, match="multiplicity"):
        coset_product(c, grp, (1, 2, 3))


def test_schottky_r_three_routes(ctx):
    c = ctx(4)
    recs = verify_schottky_R(c, (1, 2, 3, 4), (1, 2, 3, 4), 5, 6)
    by_id = {r.relation_id: r for r in recs}
    assert by_id["SCHOTTKY_R"].residual < 1e-8
    assert by_id["SCHOTTKY_DETR"].residual < 1e-10
    assert by_id["SCHOTTKY_A123"].residual == 0.0


@pytest.mark.slow
def test_schottky_r_holds_at_g5(ctx):
    c = ctx(5)
    recs = verify_schottky_R(c, (1, 3, 5, 7, 9), (1, 3, 5, 7), 2, 4)
    assert all(
        r.residual < r.tolerance for r in recs
    ), [(r.relation_id, r.residual) for r in recs]


def test_a123_exact_for_random_subsets(ctx):
    spec = ctx(4).spec
    rng = np.random.default_rng(2)
    for _ in range(100):
        ps = sorted(rng.choice(range(1, 10), size=4, replace=False).tolist())
        e = [Fraction(spec.branch_points[p - 1]) for p in ps]
        a1 = (e[1] - e[0]) * (e[3] - e[2])
        a2 = (e[2] - e[0]) * (e[3] - e[1])
        a3 = (e[3] - e[0]) * (e[2] - e[1])
        assert a1 - a2 + a3 == 0


def test_f69_case(ctx):
    rec = verify_appendix_f(ctx(4), "schottky.F69")
    assert rec.residual < 1e-7
    assert "best +--" in rec.notes


def test_f69g3_case(ctx):
    rec = verify_appendix_f(ctx(3), "schottky.F69G3")
    assert rec.residual < 1e-7


@pytest.mark.parametrize(
    "case", ["schottky.G5r1", "schottky.G5r3", "schottky.G5mixed", "schottky.G5rank4",
             "schottky.F70", "schottky.Ratio45"],
)
def test_genus5_cases(ctx, case):
    rec = verify_appendix_f(ctx(5), case)
    assert rec.residual < 1e-7, rec.notes


def test_unknown_case_rejected(ctx):
    with pytest.raises(ValueError, match="unknown Schottky case"):
        verify_appendix_f(ctx(4), "schottky.nope")


def test_case_genus_mismatch(ctx):
    with pytest.raises(ValueError, match="needs genus"):
        verify_appendix_f(ctx(4), "schottky.F70")


def test_schottky_J_vanishes_rank1(ctx):
    c = ctx(5)
    grp = build_goepel(5, [(6, 9, 10, 11)])
    triple = schottky_triple(c, grp, [(2, 4, 6, 8, 10), (2, 4, 6, 8, 11), (2, 4, 6, 8, 9)])
    # rank-1 cosets have two members; degree-8 normalisation squares twice
    assert all(len(cs) == 2 for cs in triple.coset_sets)
    _, resid = schottky_J(triple)
    assert resid < 1e-8


def test_schottky_g5r1_products_match_paper(ctx):
    # r_1 = (theta^{2,4,6,8,10} theta^{2,4,8,9,11})^4
    c = ctx(5)
    grp = build_goepel(5, [(6, 9, 10, 11)])
    triple = schottky_triple(c, grp, [(2, 4, 6, 8, 10)])
    assert set(triple.coset_sets[0]) == {(2, 4, 6, 8, 10), (2, 4, 8, 9, 11)}
    direct = (c.const((2, 4, 6, 8, 10)) * c.const((2, 4, 8, 9, 11))) ** 4
    assert abs(triple.r[0] - direct) < 1e-10 * abs(direct)


def test_true_schottky_rank3_group_g4(ctx):
    # classical invariant from a rank-3 group: J = 0 and
    # sqrt(r1) - sqrt(r2) + sqrt(r3) = 0 with ascending p's
    from thomae_lab.schottky import schottky_J, true_schottky_group

    c = ctx(4)
    grp, a_sets = true_schottky_group(c, (1, 2, 3, 4), (1, 2, 3, 4), 5, 6)
    assert grp.rank == 3
    triple = schottky_triple(c, grp, a_sets)
    assert set(triple.coset_sets[0]) == {
        (3, 4, 5, 6), (1, 2, 5, 6), (3, 4, 6, 7), (1, 2, 6, 7),
        (3, 4, 5, 8), (1, 2, 5, 8), (3, 4, 7, 8), (1, 2, 7, 8),
    }
    printed, best_signs, _ = root_sum_residual(triple.roots, "+-+")
    assert printed < 1e-8 and best_signs == "+-+"
    _, resid = schottky_J(triple)
    assert resid < 1e-8
    # sqrt(r_i) proportional to a_i of the branch-point identity
    e = c.spec.branch_points
    a1 = (e[1] - e[0]) * (e[3] - e[2])
    a2 = (e[2] - e[0]) * (e[3] - e[1])
    ratios = [r / a for r, a in zip(triple.roots[:2], (a1, a2))]
    assert abs(ratios[0] - ratios[1]) < 1e-8 * abs(ratios[0])


def test_root_sum_residual_sign_search():
    roots = (1.0 + 0j, 0.25 + 0j, 0.75 + 0j)
    printed, best_signs, best = root_sum_residual(roots, "+--")
    assert printed < 1e-15 and best_signs == "+--"
    printed, best_signs, _ = root_sum_residual(roots, "++-")
    assert printed > 0.1 and best_signs == "+--"


def test_case_registry_complete():
    assert set(CASE_IDS) == {
        "schottky.F69", "schottky.F70", "schottky.G5r1", "schottky.G5r3",
        "schottky.G5mixed", "schottky.G5rank4", "schottky.F69G3", "schottky.Ratio45",
    }
