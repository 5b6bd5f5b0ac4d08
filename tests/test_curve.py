import json
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import elementary_symmetric, ordered_diff_product, vandermonde
from thomae_lab.curve import validate_curve


def test_validate_sorted():
    spec = validate_curve(2, [1, 2, 3, 4, 5])
    assert spec.branch_points == (1, 2, 3, 4, 5)


def test_validate_sorts_unsorted_input():
    spec = validate_curve(2, [5, 4, 3, 2, 1])
    assert spec.branch_points == (1, 2, 3, 4, 5)


def test_validate_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate branch point"):
        validate_curve(2, [1, 1, 3, 4, 5])


def test_validate_rejects_wrong_count():
    with pytest.raises(ValueError, match="expected 5 branch points"):
        validate_curve(2, [1, 2, 3, 4])


def test_validate_rejects_a_genus_beyond_the_lattice_key_limit():
    # the theta lattice keys its points by 2g bits in a uint16
    with pytest.raises(ValueError, match=r"genus 9 is beyond the lattice key limit.*g <= 8"):
        validate_curve(9, range(19))
    assert validate_curve(8, range(17)).genus == 8


def test_validate_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        validate_curve(2, [1, 2, 3, 4, math.inf])


@pytest.mark.parametrize("genus", [2.0, True, "2", None])
def test_validate_rejects_a_genus_that_is_not_an_integer(genus):
    pts = [1.0, 2.0, 3.0, 4.0, 5.0] if genus is not True else [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="genus must be an integer"):
        validate_curve(genus, pts)


@pytest.mark.parametrize("bad", [True, "5", None, [5.0]])
def test_validate_rejects_branch_points_that_are_not_real(bad):
    with pytest.raises(ValueError, match="branch_points must be real numbers"):
        validate_curve(2, [1.0, 2.0, 3.0, 4.0, bad])


@pytest.mark.parametrize("points", ["12345", 5.0, {"1": 1}])
def test_validate_rejects_branch_points_that_are_not_a_list(points):
    with pytest.raises(ValueError, match="branch_points must be a list"):
        validate_curve(2, points)


def test_validate_accepts_integral_and_real_number_types():
    spec = validate_curve(np.int64(2), [np.int32(1), 2, np.float32(3.5), Fraction(9, 2), 5.0])
    assert spec.genus == 2 and type(spec.genus) is int
    assert spec.branch_points == (1.0, 2.0, 3.5, 4.5, 5.0)
    assert all(type(e) is float for e in spec.branch_points)


@pytest.mark.parametrize("field, value, match", [
    ("genus", 2.0, "genus must be an integer"),
    ("genus", True, "genus must be an integer"),
    ("branch_points", [1, 2, 3, 4, True], "branch_points must be real numbers"),
    ("branch_points", [1, 2, 3, 4, "5"], "branch_points must be real numbers"),
    ("branch_points", None, "branch_points must be a list"),
    ("genus", 9, "g <= 8"),
    ("label", [1], "label must be a string"),
])
def test_cli_rejects_a_malformed_curve_file_before_compute(tmp_path, monkeypatch, capsys,
                                                           field, value, match):
    from thomae_lab.harness import main

    def no_periods(*args, **kwargs):
        raise AssertionError("periods computed for a malformed curve file")

    monkeypatch.setattr("thomae_lab.harness.compute_periods", no_periods)
    raw = {"label": "bad", "genus": 2, "branch_points": [1.0, 2.0, 3.0, 4.0, 5.0], field: value}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "--curve", str(path)]) == 2
    assert match in capsys.readouterr().err


def test_load_curve_file_names_missing_fields(tmp_path):
    from thomae_lab.curve import load_curve_file

    path = tmp_path / "curve.json"
    for payload in ({"genus": 2}, {"branch_points": [1, 2, 3, 4, 5]}, [2, [1, 2, 3, 4, 5]]):
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match='"genus" and "branch_points"'):
            load_curve_file(str(path))


def test_vandermonde_direct():
    spec = validate_curve(2, [1, 2, 3, 4, 5])
    assert vandermonde(spec, (1, 2, 3)) == pytest.approx(2.0)
    assert vandermonde(spec, (1, 3, 5)) == pytest.approx(16.0)


def test_vandermonde_singleton_and_empty():
    spec = validate_curve(2, [1, 2, 3, 4, 5])
    assert vandermonde(spec, (3,)) == 1.0
    assert vandermonde(spec, ()) == 1.0


def test_vandermonde_rejects_infinity_index():
    spec = validate_curve(2, [1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match="infinity"):
        vandermonde(spec, (0, 1))


def test_vandermonde_positive_for_sorted_points():
    spec = validate_curve(3, [-3.1, -1.9, -0.4, 0.8, 2.2, 3.7, 5.1])
    assert vandermonde(spec, (1, 3, 4, 7)) > 0


def test_elementary_symmetric_values():
    spec = validate_curve(2, [1, 2, 3, 4, 5])
    assert elementary_symmetric(spec, (1, 2, 3), 2) == pytest.approx(11.0)
    assert elementary_symmetric(spec, (1, 2, 3), 0) == 1.0
    assert elementary_symmetric(spec, (1, 2), 3) == 0.0


def test_elementary_symmetric_generating_identity():
    # prod (1 + e_i t) = sum_n s_n t^n at 10 random t
    spec = validate_curve(3, [-3.1, -1.9, -0.4, 0.8, 2.2, 3.7, 5.1])
    idx = (1, 3, 4, 6, 7)
    rng = np.random.default_rng(7)
    for t in rng.uniform(-1.5, 1.5, size=10):
        lhs = np.prod([1 + spec.branch_points[i - 1] * t for i in idx])
        rhs = sum(elementary_symmetric(spec, idx, n) * t**n for n in range(len(idx) + 1))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


def test_vandermonde_splitting_identities():
    # Delta(I0) = Delta(K) Delta(Im) prod(K x Im) and the J-side analogue
    spec = validate_curve(4, [-4.2, -3.0, -1.8, -0.7, 0.4, 1.5, 2.9, 4.0, 5.3])
    i0 = (1, 3, 5, 8)
    k = (3, 8)
    im = (1, 5)
    lhs = vandermonde(spec, i0)
    rhs = vandermonde(spec, k) * vandermonde(spec, im) * ordered_diff_product(spec, k, im)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)
    j0 = (2, 4, 6, 7, 9)
    jm = tuple(sorted(j0 + k))
    lhs = vandermonde(spec, jm)
    rhs = vandermonde(spec, k) * vandermonde(spec, j0) * ordered_diff_product(spec, k, j0)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_vandermonde_exact_matches_float():
    spec = validate_curve(2, [1, 2, 3, 4, 5])
    # the exact rational product of the same factors (floats are binary rationals)
    e = [Fraction(x) for x in spec.branch_points]
    exact = (e[1] - e[0]) * (e[4] - e[0]) * (e[4] - e[1])
    assert float(exact) == vandermonde(spec, (1, 2, 5))


def test_curve_json_roundtrip(tmp_path):
    from thomae_lab.curve import load_curve_file

    spec = validate_curve(2, [1, 2.5, 3, 4, 5], label="demo")
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(
        {"label": spec.label, "genus": spec.genus, "branch_points": list(spec.branch_points)}
    ))
    back = load_curve_file(str(path))
    assert back == spec
