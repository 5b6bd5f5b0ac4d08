from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from oracles import parity, ref_char
from thomae_lab.characteristics import _char, _table, char_of_set
from thomae_lab.harness import _mask
from thomae_lab.schottky import (
    CASE_IDS,
    appendix_f_batch,
    coset_products,
    goepel_elements,
    raw_chars,
    root_sum_residual,
    schottky_J,
    schottky_r_batch,
    schottky_r_cosets,
)


def syzygy(a, b, c) -> str:
    """'azygetic' iff parity(a)+parity(b)+parity(c)+parity(a+b+c) is odd."""
    chars = (a, b, c, _char(a.genus, a.bits ^ b.bits ^ c.bits))
    return "azygetic" if sum(parity(x) == "odd" for x in chars) % 2 else "syzygetic"


def masks(sets) -> np.ndarray:
    return np.array([_mask(s) for s in sets], dtype=np.int64)


def sets_of(mask_array) -> set:
    return {tuple(i for i in range(m.bit_length()) if m >> i & 1) for m in mask_array.tolist()}


def case_record(c, case_id):
    return appendix_f_batch(c, np.array([[CASE_IDS.index(case_id)]]))[0]


def test_syzygy_trivial_cases():
    z = _char(4, 0)
    assert syzygy(z, z, z) == "syzygetic"
    a = char_of_set(4, (1, 2, 3, 4))
    assert syzygy(a, a, z) == "syzygetic"


def test_achars_triple_is_azygetic():
    a1 = char_of_set(4, (2, 4, 6, 8))
    a2 = char_of_set(4, (2, 4, 6, 9))
    a3 = char_of_set(4, (2, 4, 6, 7))
    assert syzygy(a1, a2, a3) == "azygetic"


def test_goepel_f1_element_list():
    elements = goepel_elements(4, masks([(1, 2), (1, 2, 3), (1, 2, 3, 4, 5)]))
    assert sorted(sets_of(elements)) == [
        (), (1, 2), (1, 2, 3), (1, 2, 3, 4, 5), (1, 2, 4, 5), (3,), (3, 4, 5), (4, 5),
    ]
    assert len(elements) == 2**3
    # every pair (a, b) of the group is syzygetic: the triple (a, b, 0) is
    chars = [_char(4, bits) for bits in raw_chars(4, elements).tolist()]
    assert all(syzygy(a, b, _char(4, 0)) == "syzygetic" for a, b in combinations(chars, 2))


def test_goepel_rank_and_errors():
    assert len(goepel_elements(5, masks([(6, 9, 10, 11)]))) == 2**1
    with pytest.raises(ValueError, match=r"dependent generator \[1, 2\]"):
        goepel_elements(4, masks([(1, 2), (1, 2)]))
    with pytest.raises(ValueError, match=r"dependent generator \[1, 2, 3, 4\]"):
        goepel_elements(4, masks([(1, 2), (3, 4), (1, 2, 3, 4)]))


def test_raw_char_vs_partition_char():
    # the partition characteristic is the raw sum shifted by [K]
    g = 4
    s = frozenset({1, 4, 6})
    raw = _char(g, int(raw_chars(g, np.array(_mask(s)))))
    assert char_of_set(g, s) == _char(g, raw.bits ^ _table(g)[1])


def test_coset_rejects_singular_member(ctx):
    c = ctx(4)
    # partition {1,3,5,7} shifted by {1,2} gives {2,3,5,7}: fine; but
    # a multiplicity-1 base set must be rejected outright
    with pytest.raises(ValueError, match="multiplicity"):
        coset_products(c, masks([(1, 2)])[None], masks([(1, 2, 3)])[None])


@pytest.mark.parametrize("rep, part, mult", [((1, 2, 3), "{1,2,3}", 1), ((1,), "{1}", 2)])
def test_coset_error_names_partition_and_characteristic(ctx, rep, part, mult):
    """The first bad coset member is named by its canonical partition and
    its characteristic string "[eps'/eps]", read off the tuple reference."""
    c = ctx(4)
    eps, eps_prime = ref_char(4, rep)
    char = "[" + "".join(map(str, eps_prime)) + "/" + "".join(map(str, eps)) + "]"
    with pytest.raises(ValueError) as err:
        coset_products(c, masks([(4, 5)])[None], masks([rep])[None])
    assert str(err.value) == (f"coset member {part} (char {char}) has multiplicity {mult}; "
                              "all members must be even non-singular")


def test_schottky_r_three_routes(ctx):
    c = ctx(4)
    recs = schottky_r_batch(c, np.array([(1, 2, 3, 4) + (1, 2, 3, 4) + (5, 6)]))
    by_id = {r.relation_id: r for r in recs}
    assert by_id["SCHOTTKY_R"].residual < 1e-8
    assert by_id["SCHOTTKY_DETR"].residual < 1e-10
    assert by_id["SCHOTTKY_A123"].residual == 0.0


@pytest.mark.slow
def test_schottky_r_holds_at_g5(ctx):
    c = ctx(5)
    recs = schottky_r_batch(c, np.array([(1, 3, 5, 7, 9) + (1, 3, 5, 7) + (2, 4)]))
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
    rec = case_record(ctx(4), "schottky.F69")
    assert rec.residual < 1e-7
    assert "best +--" in rec.notes


def test_f69g3_case(ctx):
    rec = case_record(ctx(3), "schottky.F69G3")
    assert rec.residual < 1e-7


@pytest.mark.parametrize(
    "case", ["schottky.G5r1", "schottky.G5r3", "schottky.G5mixed", "schottky.G5rank4",
             "schottky.F70", "schottky.Ratio45"],
)
def test_genus5_cases(ctx, case):
    rec = case_record(ctx(5), case)
    assert rec.residual < 1e-7, rec.notes


def test_unknown_case_rejected(ctx):
    with pytest.raises(ValueError, match="unknown Schottky case"):
        appendix_f_batch(ctx(4), np.array([[len(CASE_IDS)]]))


def test_case_genus_mismatch(ctx):
    with pytest.raises(ValueError, match="needs genus"):
        case_record(ctx(4), "schottky.F70")


def test_schottky_J_vanishes_rank1(ctx):
    c = ctx(5)
    gens = masks([(6, 9, 10, 11)])
    reps = masks([(2, 4, 6, 8, 10), (2, 4, 6, 8, 11), (2, 4, 6, 8, 9)])
    # rank-1 cosets have two members; degree-8 normalisation squares twice
    assert len(goepel_elements(5, gens)) == 2
    r = coset_products(c, gens[None], reps[None])[0] ** 4
    _, resid = schottky_J(r)
    assert resid < 1e-8


def test_schottky_g5r1_products_match_paper(ctx):
    # r_1 = (theta^{2,4,6,8,10} theta^{2,4,8,9,11})^4
    c = ctx(5)
    gens, rep = masks([(6, 9, 10, 11)]), _mask((2, 4, 6, 8, 10))
    assert sets_of(rep ^ goepel_elements(5, gens)) == {(2, 4, 6, 8, 10), (2, 4, 8, 9, 11)}
    r = coset_products(c, gens[None], np.array([[rep]]))[0, 0] ** 4
    direct = (c.const((2, 4, 6, 8, 10)) * c.const((2, 4, 8, 9, 11))) ** 4
    assert abs(r - direct) < 1e-10 * abs(direct)


def test_true_schottky_rank3_group_g4(ctx):
    # classical invariant from a rank-3 group: J = 0 and
    # sqrt(r1) - sqrt(r2) + sqrt(r3) = 0 with ascending p's
    c = ctx(4)
    gens, reps = schottky_r_cosets(c, np.array([(1, 2, 3, 4) + (1, 2, 3, 4) + (5, 6)]))
    elements = goepel_elements(4, gens[0])
    assert len(elements) == 2**3
    assert sets_of(reps[0, 0] ^ elements) == {
        (3, 4, 5, 6), (1, 2, 5, 6), (3, 4, 6, 7), (1, 2, 6, 7),
        (3, 4, 5, 8), (1, 2, 5, 8), (3, 4, 7, 8), (1, 2, 7, 8),
    }
    # rank 3: each product enters with exponent 8 / 2^3 = 1
    r = coset_products(c, gens, reps)[0]
    roots = r**0.5
    printed, best_signs, _ = root_sum_residual(roots, "+-+")
    assert printed < 1e-8 and best_signs == "+-+"
    _, resid = schottky_J(r)
    assert resid < 1e-8
    # sqrt(r_i) proportional to a_i of the branch-point identity
    e = c.spec.branch_points
    a1 = (e[1] - e[0]) * (e[3] - e[2])
    a2 = (e[2] - e[0]) * (e[3] - e[1])
    ratios = [r / a for r, a in zip(roots[:2], (a1, a2))]
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
