import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from thomae_lab.curve import save_curve_file, validate_curve
from thomae_lab.harness import (
    DEFAULT_TOLERANCES,
    SuiteConfig,
    main,
    random_curve,
    run_suite,
)


def test_random_curve_deterministic():
    a = random_curve(3, 1)
    b = random_curve(3, 1)
    assert a == b
    assert random_curve(3, 2) != a


def test_random_curve_gaps_and_range():
    for seed in range(5):
        spec = random_curve(2, seed)
        pts = np.asarray(spec.branch_points)
        assert len(pts) == 5
        assert np.min(np.diff(pts)) >= 0.3
        assert np.all((pts >= -10) & (pts <= 10))


def test_run_suite_g2_all_pass():
    cfg = SuiteConfig(spec=random_curve(2, 7), cap=100, seed=7)
    report = run_suite(cfg)
    assert report.all_passed(), [r.as_dict() for r in report.records if not r.passed]
    assert report.summary()["fail"] == 0
    assert report.summary()["pass"] == len(report.records)


def test_relations_filter():
    cfg = SuiteConfig(spec=random_curve(2, 7), relations=("GRAD3",), cap=30, seed=7)
    report = run_suite(cfg)
    assert report.records
    assert {r.relation_id for r in report.records} == {"GRAD3"}


def test_unknown_family_rejected_before_compute():
    cfg = SuiteConfig(spec=random_curve(2, 7), relations=("NOPE",))
    with pytest.raises(ValueError, match="unknown relation families"):
        run_suite(cfg)


def test_reports_byte_identical():
    cfg = SuiteConfig(spec=random_curve(2, 9), cap=50, seed=9)
    r1 = run_suite(cfg).to_json(include_timings=False)
    r2 = run_suite(cfg).to_json(include_timings=False)
    assert r1 == r2


def test_report_json_schema():
    cfg = SuiteConfig(spec=random_curve(2, 9), relations=("THOMAE1",), cap=20, seed=9)
    payload = json.loads(run_suite(cfg).to_json(include_timings=False))
    assert set(payload) == {"curve", "periods", "calibration", "records", "summary", "config"}
    assert "est_error" in payload["periods"]
    rec = payload["records"][0]
    assert set(rec) == {"relation_id", "bindings", "residual", "tolerance", "pass", "notes"}
    cal = payload["calibration"][0]
    assert set(cal) == {"char", "set", "phase", "residual"}
    assert payload["calibration"][0]["char"].startswith("[")


def test_cli_exit_codes(tmp_path, capsys):
    curve_path = tmp_path / "c.json"
    save_curve_file(validate_curve(2, [1, 2, 3, 4, 5], "cli"), str(curve_path))
    code = main(["verify", "--curve", str(curve_path), "--relations", "THOMAE1",
                 "--format", "json", "--out", str(tmp_path / "r.json")])
    assert code == 0
    payload = json.loads((tmp_path / "r.json").read_text())
    assert payload["summary"]["fail"] == 0
    # unknown family: infrastructure error, before any computation
    code = main(["verify", "--genus", "2", "--relations", "BOGUS"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown relation families" in err
    # impossible tolerance forces relation failures: exit 1
    code = main(["verify", "--genus", "2", "--seed", "1", "--relations", "THOMAE1",
                 "--tol-family", "THOMAE1=1e-30", "--format", "json",
                 "--out", str(tmp_path / "f.json")])
    assert code == 1


def test_cli_text_output(capsys):
    code = main(["verify", "--genus", "2", "--seed", "3", "--relations", "GRAD2,GRAD3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "GRAD2" in out and "GRAD3" in out and "summary:" in out


def test_cli_text_output_reproducible(capsys):
    outs = []
    for _ in range(2):
        assert main(["verify", "--genus", "2", "--seed", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "s]" not in outs[0]
    assert main(["verify", "--genus", "2", "--seed", "3", "--relations", "GRAD2",
                 "--timings"]) == 0
    assert "s]" in capsys.readouterr().out


def test_period_cache(tmp_path):
    cache = tmp_path / "periods.json"
    cfg = SuiteConfig(spec=random_curve(2, 5), relations=("THOMAE1",), cap=10,
                      period_cache=str(cache))
    r1 = run_suite(cfg)
    assert cache.exists()
    stamp = cache.read_text()
    r2 = run_suite(cfg)
    assert cache.read_text() == stamp
    assert r1.to_json(False) == r2.to_json(False)


def test_period_cache_rejects_lower_order(tmp_path):
    cache = tmp_path / "periods.json"
    spec = random_curve(2, 5)
    base = SuiteConfig(spec=spec, relations=("THOMAE1",), cap=10,
                       quad_order=32, period_cache=str(cache))
    r_low = run_suite(base)
    finer = SuiteConfig(spec=spec, relations=("THOMAE1",), cap=10,
                        quad_order=128, period_cache=str(cache))
    r_high = run_suite(finer)
    assert json.loads(cache.read_text())["quad_order"] >= 256
    assert r_high.periods["quad_order"] > r_low.periods["quad_order"]


@pytest.mark.parametrize("payload", [
    lambda spec: {},
    lambda spec: [],
    lambda spec: 7,
    lambda spec: {"curve_hash": spec.content_hash()},
], ids=["empty-object", "list", "number", "hash-only"])
def test_period_cache_malformed_is_recomputed(tmp_path, payload):
    spec = random_curve(2, 5)
    cache = tmp_path / "periods.json"
    cache.write_text(json.dumps(payload(spec)))
    cfg = SuiteConfig(spec=spec, relations=("THOMAE1",), cap=10, period_cache=str(cache))
    report = run_suite(cfg)
    assert report.all_passed()
    assert json.loads(cache.read_text())["quad_order"] == report.periods["quad_order"]


# Records per family and a sha256 of the sorted (family, bindings) list of
# the default suite on random_curve(g, 14), sampling seed 14, default cap.
PINNED_BINDINGS = {
    2: ({"EJI": 10, "EKLM": 40, "GRAD2": 10, "GRAD3": 20, "GRADN": 3, "RANK": 200,
         "RJ_DET": 10, "THOMAE1": 10, "THOMAE2": 6},
        "71b4a23e051ee75baf65cca822301e7785e3cc2b4ed33b15332a68515ca3756c"),
    3: ({"CONJ_M": 1, "EJI": 35, "EKLM": 200, "GRAD2": 105, "GRAD3": 245, "GRAD4": 61,
         "GRADN": 6, "HESS_EQUIV": 20, "HESS_K3": 35, "HESS_RANK": 1, "RANK": 200,
         "RJ_DET": 20, "SCHOTTKY_F": 1, "THOMAE1": 35, "THOMAE2": 28, "THOMAEG": 1},
        "007892e3aea3a61f2e3312c519e70a3ee289fe82e3dd3ed568cf642e97d4cfef"),
    4: ({"CONJ_M": 2, "EJI": 100, "EKLM": 200, "GRAD2": 500, "GRAD3": 500, "GRAD4": 275,
         "GRADN": 9, "HESS_EQUIV": 30, "HESS_K3": 250, "HESS_K4": 126, "HESS_RANK": 10,
         "RANK": 201, "RJ_DET": 20, "SCHOTTKY_A123": 20, "SCHOTTKY_DETR": 20,
         "SCHOTTKY_F": 1, "SCHOTTKY_R": 20, "THOMAE1": 126, "THOMAE2": 120, "THOMAEG": 10},
        "3dc84d0db957a357cef061c271f1c029b67a0820c984b64317c524902eb16afa"),
}


@pytest.mark.parametrize("g", sorted(PINNED_BINDINGS))
def test_pinned_bindings(g):
    report = run_suite(SuiteConfig(spec=random_curve(g, 14), seed=14))
    assert report.all_passed()
    dicts = [r.as_dict() for r in report.records]
    counts = Counter(d["relation_id"] for d in dicts)
    bindings = sorted((d["relation_id"], json.dumps(d["bindings"], sort_keys=True)) for d in dicts)
    digest = hashlib.sha256(json.dumps(bindings).encode()).hexdigest()
    assert (dict(counts), digest) == PINNED_BINDINGS[g]


def test_tolerance_defaults_cover_all_record_kinds():
    cfg = SuiteConfig(spec=random_curve(2, 7), cap=30)
    report = run_suite(cfg)
    for rec in report.records:
        if rec.relation_id in DEFAULT_TOLERANCES:
            assert rec.tolerance <= DEFAULT_TOLERANCES[rec.relation_id] or rec.tolerance == 0.5
