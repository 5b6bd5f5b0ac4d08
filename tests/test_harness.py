import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from thomae_lab import harness
from thomae_lab import theta as theta_module
from thomae_lab.context import CurveContext
from thomae_lab.curve import validate_curve
from thomae_lab.harness import (
    DEFAULT_TOLERANCES,
    FAMILIES,
    SuiteConfig,
    _FILTER_ALIASES,
    _family_rng,
    _parse_tolerances,
    build_parser,
    main,
    random_curve,
    run_order,
    run_suite,
)
from thomae_lab.periods import compute_periods
from thomae_lab.theta import ThetaEngine, truncation_radius


def test_random_curve_deterministic():
    a = random_curve(3, 1)
    b = random_curve(3, 1)
    assert a == b
    assert random_curve(3, 2) != a


def test_random_curve_rejects_a_genus_beyond_the_lattice_key_limit():
    with pytest.raises(ValueError, match="g <= 8"):
        random_curve(9, 1)


def test_cli_rejects_a_large_genus_at_once():
    # random_curve rejects g > 8 before its rejection loop, which at genus 15
    # would run for ever: 31 uniform points in [-10, 10] are almost never all
    # 0.3 apart
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "thomae_lab", "verify", "--genus", "15",
                           "--seed", "1"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "genus 15 is beyond the lattice key limit" in proc.stderr and "g <= 8" in proc.stderr


def test_cli_rejects_genus_9_before_the_periods(monkeypatch, capsys):
    def no_periods(*args, **kwargs):
        raise AssertionError("periods computed for a genus beyond the lattice key limit")

    monkeypatch.setattr("thomae_lab.harness.compute_periods", no_periods)
    assert main(["verify", "--genus", "9", "--seed", "1"]) == 2
    assert "g <= 8" in capsys.readouterr().err


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


def test_config_echoes_the_relations_filter():
    # an empty filter runs no family and says so; only no filter echoes null
    spec = random_curve(2, 7)
    empty = run_suite(SuiteConfig(spec=spec, relations=(), cap=30, seed=7))
    assert empty.records == []
    assert empty.config["relations"] == []
    assert json.loads(empty.to_json(False))["config"]["relations"] == []
    full = run_suite(SuiteConfig(spec=spec, cap=30, seed=7))
    assert full.records and full.config["relations"] is None
    one = run_suite(SuiteConfig(spec=spec, relations=("GRAD3", "EKLM"), cap=30, seed=7))
    assert one.config["relations"] == ["EKLM", "GRAD3"]


def test_unknown_family_rejected_before_compute():
    cfg = SuiteConfig(spec=random_curve(2, 7), relations=("NOPE",))
    with pytest.raises(ValueError, match="unknown relation families"):
        run_suite(cfg)


@pytest.mark.parametrize("g", [2, 5])
def test_reports_byte_identical(g):
    # genus 5 runs every family, THOMAEG at m = 2 and 3 and SCHOTTKY_R included
    cfg = SuiteConfig(spec=random_curve(g, 9), cap=50, seed=9)
    r1 = run_suite(cfg).to_json(include_timings=False)
    r2 = run_suite(cfg).to_json(include_timings=False)
    assert r1 == r2


def test_report_json_schema():
    cfg = SuiteConfig(spec=random_curve(2, 9), relations=("THOMAE1",), cap=20, seed=9)
    payload = json.loads(run_suite(cfg).to_json(include_timings=False))
    assert set(payload) == {"curve", "periods", "theta", "records", "summary", "config"}
    assert "est_error" in payload["periods"]
    assert set(payload["theta"]) == {"order", "radius", "points"}
    rec = payload["records"][0]
    assert set(rec) == {"relation_id", "bindings", "residual", "tolerance", "pass", "notes"}
    assert rec["relation_id"] == "THOMAE1" and rec["notes"] == ""


@pytest.fixture(scope="module")
def g5_report():
    """The full suite on random_curve(5, 1): 19 tables, 21 slabs."""
    return run_suite(SuiteConfig(spec=random_curve(5, 1), seed=1))


def _dumps(report, include_timings):
    """The JSON report as one json.dumps of its payload."""
    payload = {"curve": report.curve, "periods": report.periods, "theta": report.theta,
               "records": [r.as_dict() for r in report.records],
               "summary": report.summary(), "config": report.config}
    if include_timings:
        payload["timings"] = report.timings
    return json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("relations,slabs", [(None, 21), (("THOMAE1",), 3), ((), 2)],
                         ids=["many-slabs", "one-slab", "empty-filter"])
def test_json_slabs_join_to_one_dumps(g5_report, relations, slabs):
    if relations is None:
        report = g5_report
    else:
        report = run_suite(SuiteConfig(spec=random_curve(2, 1), relations=relations, seed=1))
    assert len(list(report.json_slabs(False))) == slabs
    for include_timings in (False, True):
        assert report.to_json(include_timings) == _dumps(report, include_timings)


def test_cli_json_is_to_json_and_a_newline(tmp_path, capsys):
    # 14 slabs, on stdout and through --out
    argv = ["verify", "--genus", "3", "--seed", "1", "--format", "json"]
    want = run_suite(SuiteConfig(spec=random_curve(3, 1), seed=1)).to_json(False) + "\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
    assert (tmp_path / "r.json").read_text() == want


def test_to_json_holds_no_chunk_list(g5_report):
    # one json.dumps holds about 8.4 bytes per output character here
    tracemalloc.start()
    try:
        text = g5_report.to_json(False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * len(text), peak / len(text)


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_cli_exits_2_on_an_unwritable_out(tmp_path, capsys, where):
    out = tmp_path / "no" / "r.json" if where == "missing-dir" else tmp_path
    assert main(["verify", "--genus", "2", "--seed", "1", "--relations", "THOMAE1",
                 "--format", "json", "--out", str(out)]) == 2
    assert f"error: cannot write report to {out}: " in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-dir", "a-directory", "not-writable"])
def test_an_unwritable_out_is_refused_before_the_periods(tmp_path, capsys, monkeypatch, where):
    out = tmp_path / "no" / "r.json" if where == "missing-dir" else tmp_path
    if where == "not-writable":
        out = tmp_path / "r.json"
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: mode != os.W_OK and access(p, mode))
    calls = []
    monkeypatch.setattr(harness, "compute_periods", lambda *a, **k: calls.append(a))
    assert main(["verify", "--genus", "2", "--seed", "1", "--relations", "THOMAE1",
                 "--format", "json", "--out", str(out)]) == 2
    assert f"error: cannot write report to {out}: " in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "r.json").exists()


def test_cli_exit_codes(tmp_path, capsys):
    curve_path = tmp_path / "c.json"
    spec = validate_curve(2, [1, 2, 3, 4, 5], "cli")
    curve_path.write_text(json.dumps(
        {"label": spec.label, "genus": spec.genus, "branch_points": list(spec.branch_points)}
    ))
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


@pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
def test_cli_rejects_a_relations_filter_naming_no_family(monkeypatch, capsys, value):
    # an empty filter once ran every family
    def no_periods(*args, **kwargs):
        raise AssertionError("periods computed for an empty --relations")

    monkeypatch.setattr("thomae_lab.harness.compute_periods", no_periods)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--genus", "2", "--seed", "1", "--relations", value])
    assert exc.value.code == 2
    assert f"argument --relations: {value!r} names no family" in capsys.readouterr().err


def test_cli_skips_empty_relation_names(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--genus", "2", "--seed", "1", "--relations", "THOMAE1,",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["relations"] == ["THOMAE1"]
    assert {r["relation_id"] for r in payload["records"]} == {"THOMAE1"}


def test_cli_skips_blank_tolerance_pieces(tmp_path):
    # a trailing ", " once failed with "' ': expected NAME=VAL"
    out = tmp_path / "r.json"
    assert main(["verify", "--genus", "2", "--seed", "1", "--relations", "THOMAE1",
                 "--tol-family", "THOMAE1=1e-6, ", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["tolerances"] == {"THOMAE1": 1e-6}
    assert _parse_tolerances(build_parser(), [" , "]) == {}


def test_genus_1_curve_is_rejected(tmp_path, capsys):
    # a genus-1 curve has no instance of any family: it once passed with 0 records
    spec = validate_curve(1, [-1, 0, 1])
    with pytest.raises(ValueError, match="the suite needs genus >= 2, got genus 1"):
        SuiteConfig(spec=spec)
    curve_path = tmp_path / "g1.json"
    curve_path.write_text(json.dumps({"genus": 1, "branch_points": [-1, 0, 1]}))
    assert main(["verify", "--curve", str(curve_path)]) == 2
    assert "the suite needs genus >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-5", "0", "x"])
def test_cli_rejects_bad_cap_before_compute(monkeypatch, capsys, cap):
    def no_periods(*args, **kwargs):
        raise AssertionError("periods computed for an invalid --cap")

    monkeypatch.setattr("thomae_lab.harness.compute_periods", no_periods)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--genus", "2", "--seed", "1", "--cap", cap])
    assert exc.value.code == 2
    assert "argument --cap" in capsys.readouterr().err


def test_suite_config_rejects_unknown_tolerance():
    with pytest.raises(ValueError, match=r"unknown tolerance families: \['GRAD_2'\]; known: .*'GRAD2'"):
        SuiteConfig(spec=random_curve(2, 1), tolerances={"GRAD_2": 1e-30})


def test_cli_rejects_unknown_tolerance(monkeypatch, capsys):
    def no_periods(*args, **kwargs):
        raise AssertionError("periods computed for an unknown tolerance family")

    monkeypatch.setattr("thomae_lab.harness.compute_periods", no_periods)
    assert main(["verify", "--genus", "2", "--seed", "1", "--tol-family", "GRAD_2=1"]) == 2
    assert "unknown tolerance families: ['GRAD_2']" in capsys.readouterr().err


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
def test_suite_config_rejects_bad_tolerance(value):
    with pytest.raises(ValueError, match=r"tolerance for GRAD2 must be finite and > 0, got"):
        SuiteConfig(spec=random_curve(2, 1), tolerances={"GRAD2": value})
    with pytest.raises(ValueError, match=r"theta_tol must be finite and > 0, got"):
        SuiteConfig(spec=random_curve(2, 1), theta_tol=value)
    with pytest.raises(ValueError, match=r"ThetaEngine.tol must be finite and > 0, got"):
        ThetaEngine(1j * np.eye(2), tol=value)


def test_suite_config_rejects_bad_quad_order():
    with pytest.raises(ValueError, match="quad_order must be at least 1, got 0"):
        SuiteConfig(spec=random_curve(2, 1), quad_order=0)


@pytest.mark.parametrize("args,option,item", [
    (["--tol-family", "GRAD2=-1"], "--tol-family", "'GRAD2=-1'"),
    (["--tol-family", "GRAD2=nan"], "--tol-family", "'GRAD2=nan'"),
    (["--tol-family", "GRAD2"], "--tol-family", "'GRAD2'"),
    (["--quad-order", "0"], "--quad-order", "got 0"),
    (["--theta-tol", "nan"], "--theta-tol", "got nan"),
    (["--theta-tol", "inf"], "--theta-tol", "got inf"),
    (["--theta-tol", "-1"], "--theta-tol", "got -1.0"),
    (["--theta-tol", "0"], "--theta-tol", "got 0.0"),
    (["--seed", "-1"], "--seed", "got -1"),
], ids=["negative", "nan", "no-value", "quad-order-0", "theta-tol-nan", "theta-tol-inf",
        "theta-tol-negative", "theta-tol-0", "seed-negative"])
def test_cli_rejects_bad_numbers_before_compute(monkeypatch, capsys, args, option, item):
    def no_periods(*a, **kw):
        raise AssertionError("periods computed for an invalid option")

    monkeypatch.setattr("thomae_lab.harness.compute_periods", no_periods)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--genus", "2", "--seed", "1", "--relations", "GRAD2", *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}" in err and item in err


def test_text_report_worst_shows_a_nan_residual(monkeypatch):
    # a NaN residual after a finite one must not vanish from worst=
    ratios = harness.calibrate_phases

    def last_nan(ctx, masks):
        out = ratios(ctx, masks)
        out[-1] = np.nan
        return out

    monkeypatch.setattr(harness, "calibrate_phases", last_nan)
    report = run_suite(SuiteConfig(spec=random_curve(3, 1), relations=("THOMAE1",), seed=1))
    line = next(s for s in report.to_text().splitlines() if s.split()[0] == "THOMAE1")
    assert "FAIL (1/35)" in line and "worst=nan" in line


def test_text_report_prints_tolerance_range(capsys):
    # at genus 5 THOMAEG mixes m = 2 (1e-5) and m = 3 (1e-4) records
    assert main(["verify", "--genus", "5", "--seed", "1", "--relations", "THOMAE2,THOMAEG"]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["THOMAEG"].endswith(" tol=1e-05..1e-04")
    assert lines["THOMAE2"].endswith(" tol=1e-06")


@pytest.mark.parametrize("cap", [0, -5])
def test_suite_config_rejects_bad_cap(cap):
    with pytest.raises(ValueError, match="cap must be at least 1"):
        SuiteConfig(spec=random_curve(2, 1), cap=cap)


def test_suite_config_rejects_a_negative_seed():
    # numpy's default_rng rejects it only once the periods are computed
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SuiteConfig(spec=random_curve(2, 1), seed=-1)


def test_timings_charge_the_lattice_to_its_own_stage(monkeypatch):
    # the engine enumerates its lattice as the context is built
    enumerate_points = theta_module._ellipsoid_points

    def slow(*args):
        time.sleep(0.3)
        return enumerate_points(*args)

    monkeypatch.setattr(theta_module, "_ellipsoid_points", slow)
    report = run_suite(SuiteConfig(spec=random_curve(2, 1), relations=("THOMAE1",), cap=5, seed=1))
    assert report.timings["periods"] < 0.3 <= report.timings["lattice"]
    assert report.timings["THOMAE1"] < 0.3


def test_a_run_without_thomae1_never_evaluates_the_first_formula(monkeypatch):
    def no_first_formula(*args):
        raise AssertionError("the first Thomae formula evaluated outside THOMAE1")

    monkeypatch.setattr("thomae_lab.harness.calibrate_phases", no_first_formula)
    report = run_suite(SuiteConfig(spec=random_curve(3, 1), relations=("GRAD2",), cap=30, seed=1))
    assert report.records and report.all_passed()
    assert {r.relation_id for r in report.records} == {"GRAD2"}


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


def test_text_timings_print_the_stages_on_one_line():
    report = run_suite(SuiteConfig(spec=random_curve(2, 1), relations=("THOMAE1",), cap=5, seed=1))
    lines = report.to_text(include_timings=True).splitlines()
    stages = [line for line in lines if line.startswith("stages: ")]
    assert stages == [f"stages: bindings {report.timings['bindings']:.2f}s, "
                      f"periods {report.timings['periods']:.2f}s, lattice {report.timings['lattice']:.2f}s"]
    assert lines.index(stages[0]) == 3  # after the theta lattice line
    assert not any(line.startswith("stages") for line in report.to_text().splitlines())


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
    # D3_K5, THOMAEG and CONJ_M at m = 3, and the genus-5 Schottky cases
    5: ({"CONJ_M": 3, "D3_K5": 25, "EJI": 100, "EKLM": 200, "GRAD2": 500, "GRAD3": 500,
         "GRAD4": 275, "GRADN": 9, "HESS_EQUIV": 30, "HESS_K3": 250, "HESS_K4": 250,
         "HESS_RANK": 10, "RANK": 201, "RJ_DET": 20, "SCHOTTKY_A123": 20, "SCHOTTKY_DETR": 20,
         "SCHOTTKY_F": 6, "SCHOTTKY_R": 20, "THOMAE1": 462, "THOMAE2": 495, "THOMAEG": 26},
        "e53935622f68157a700678cf4c55a1524022cfd8a92501d0de58caf8a6f943a1"),
    # D3_K6 from genus 6 on
    6: ({"CONJ_M": 3, "D3_K5": 25, "D3_K6": 3, "EJI": 100, "EKLM": 200, "GRAD2": 500,
         "GRAD3": 500, "GRAD4": 275, "GRADN": 9, "HESS_EQUIV": 30, "HESS_K3": 250,
         "HESS_K4": 250, "HESS_RANK": 10, "RANK": 201, "RJ_DET": 20, "SCHOTTKY_A123": 20,
         "SCHOTTKY_DETR": 20, "SCHOTTKY_R": 20, "THOMAE1": 500, "THOMAE2": 500, "THOMAEG": 39},
        "4ade27f32ef7adb6b5684e895ae40477173bdfa17c29f4b7300cc39080793c56"),
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


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_binding_width_does_not_depend_on_g(name):
    # every index set of a binding is one mask column, so a family's rows are
    # as wide at every genus; RANK holds min(g + 2, 6) part masks after its
    # flag.  The samplers take the genus, not a curve.
    widths = {}
    for g in (4, 5, 6):
        cfg = SuiteConfig(spec=random_curve(g, 1), seed=1)
        rows = FAMILIES[name].bindings(g, cfg, _family_rng(cfg, name))
        assert isinstance(rows, np.ndarray) and rows.dtype == np.int64, (name, g)
        widths[g] = rows.shape[1:]
    if name == "RANK":
        assert widths == {g: (min(g + 2, 6) + 1,) for g in (4, 5, 6)}
    else:
        assert len(set(widths.values())) == 1, widths


def _tolerance_key(rec) -> str | None:
    """The DEFAULT_TOLERANCES key of a record: THOMAEG at m = 3 reads
    THOMAEG_G5, the exact SCHOTTKY_A123 none."""
    if rec.relation_id == "THOMAEG" and rec.bindings["m"] == 3:
        return "THOMAEG_G5"
    return rec.relation_id if rec.relation_id in DEFAULT_TOLERANCES else None


def test_tolerance_defaults_cover_all_record_kinds():
    # every key has records at genus 5 (SCHOTTKY_F, THOMAEG_G5) or 6 (D3_K6)
    keys = set()
    for g in (5, 6):
        for rec in run_suite(SuiteConfig(spec=random_curve(g, 7), cap=30)).records:
            key = _tolerance_key(rec)
            if key is None:
                assert (rec.relation_id, rec.tolerance) == ("SCHOTTKY_A123", 0.5)
            else:
                assert rec.tolerance == DEFAULT_TOLERANCES[key], (g, rec.relation_id)
            keys.add(key)
    assert keys == set(DEFAULT_TOLERANCES) | {None}


@pytest.mark.parametrize("key", sorted(DEFAULT_TOLERANCES))
def test_a_tolerance_override_reaches_exactly_its_records(key):
    # cap 25: below it HESS_EQUIV and SCHOTTKY_R draw no binding; THOMAE1
    # rides along as a second family
    spec = random_curve(6 if key == "D3_K6" else 5, 1)
    relations = (_FILTER_ALIASES.get(key, key), "THOMAE1")

    def records(tolerances):
        cfg = SuiteConfig(spec=spec, relations=relations, cap=25, seed=1, tolerances=tolerances)
        return run_suite(cfg).records

    base, moved = records({}), records({key: 0.25})
    assert [(r.relation_id, r.bindings) for r in moved] == \
        [(r.relation_id, r.bindings) for r in base]
    mine = [_tolerance_key(r) == key for r in base]
    assert any(mine)
    assert [m.tolerance for m in moved] == \
        [0.25 if own else b.tolerance for b, own in zip(base, mine)]
    assert all(b.tolerance != 0.25 for b in base)


def test_every_family_reads_one_read_only_table(monkeypatch):
    # the run builds the table once; every verifier gets it as verify(ctx, rows, tol)
    seen = []

    def spy(verify):
        def run(ctx, rows, tol):
            seen.append(tol)
            return verify(ctx, rows, tol)
        return run

    for name, family in FAMILIES.items():
        monkeypatch.setitem(FAMILIES, name, dataclasses.replace(family, verify=spy(family.verify)))
    cfg = SuiteConfig(spec=random_curve(4, 1), cap=30, seed=1, tolerances={"GRAD2": 1e-7})
    run_suite(cfg)
    assert len(seen) == len(FAMILIES) - 2  # D3_K5 and D3_K6 start at genus 5
    assert all(tol is seen[0] for tol in seen)
    assert dict(seen[0]) == {**DEFAULT_TOLERANCES, "GRAD2": 1e-7}
    with pytest.raises(TypeError):
        seen[0]["GRAD2"] = 1.0
    with pytest.raises(TypeError):
        DEFAULT_TOLERANCES["GRAD2"] = 1.0


# --- the lattice order of a run ---------------------------------------------

def test_thomae1_run_enumerates_at_the_order0_radius():
    spec = random_curve(4, 2)
    report = run_suite(SuiteConfig(spec=spec, relations=("THOMAE1",), cap=20, seed=2))
    tau = compute_periods(spec, 96).tau
    assert report.theta == {"order": 0, "radius": round(truncation_radius(tau, 1e-12, order=0), 6),
                            "points": ThetaEngine(tau, order=0).points}
    assert report.theta["points"] < ThetaEngine(tau).points  # the order-4 engine's lattice, at R_2
    line = (f"theta lattice: order 0, radius {report.theta['radius']}, "
            f"{report.theta['points']} points")
    assert line in report.to_text().splitlines()
    full = run_suite(SuiteConfig(spec=spec, cap=20, seed=2))
    assert full.theta["order"] == 2  # Hessians; orders 3 and 4 start at genus 5 and 7


def test_run_order_follows_the_genus():
    # THOMAEG reads order 3 and CONJ_M order 3 from genus 5 on, CONJ_M order 4
    # only with enable_heavy at genus 7; families below min_genus read nothing
    families = FAMILIES.values()
    assert [run_order(families, g, False) for g in range(2, 9)] == [1, 2, 2, 3, 3, 3, 3]
    assert [run_order(families, g, True) for g in range(2, 9)] == [1, 2, 2, 3, 3, 4, 4]
    assert run_order([FAMILIES["D3_K5"]], 4, True) == 0
    assert run_order([], 5, False) == 0


def _family_alone(g: int, name: str) -> None:
    cfg = SuiteConfig(spec=random_curve(g, 4), relations=(name,), cap=20, seed=4,
                      enable_heavy=True)
    family = FAMILIES[name]
    # no binding, nothing to certify: the run stops before the lattice, and
    # says whether the genus or the cap left the family empty
    if g < family.min_genus:
        why = f"below their smallest genus: {name} \\(genus {family.min_genus}\\)"
    elif not len(family.bindings(g, cfg, _family_rng(cfg, name))):
        why = f"0 rows at cap 20: {name}"
    else:
        why = None
    if why:
        with pytest.raises(ValueError, match=f"^no family drew a binding at genus {g}: {why}$"):
            run_suite(cfg)
        return
    report = run_suite(cfg)  # a family reading above its declared order raises
    assert report.theta["order"] == run_order([FAMILIES[name]], g, True)
    assert report.all_passed(), [r.as_dict() for r in report.records if not r.passed]


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_each_family_runs_at_its_declared_order(g, name):
    _family_alone(g, name)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_each_family_runs_at_its_declared_order_g6(name):
    _family_alone(6, name)


def test_a_run_without_bindings_exits_2_before_the_periods(monkeypatch, capsys):
    # at cap 20 HESS_EQUIV and SCHOTTKY_R draw cap // 25 = 0 rows each
    def no_periods(*args, **kwargs):
        raise AssertionError("the periods were computed")

    monkeypatch.setattr(harness, "compute_periods", no_periods)
    argv = ["verify", "--genus", "5", "--seed", "1", "--relations", "SCHOTTKY_R,HESS_EQUIV"]
    assert main([*argv, "--cap", "20"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: no family drew a binding at genus 5: "
                   "0 rows at cap 20: HESS_EQUIV, SCHOTTKY_R\n")
    assert main([*argv, "--cap", "25"]) == 2  # one row each: the run goes on
    assert "error: the periods were computed" in capsys.readouterr().err


def test_an_empty_run_names_the_families_below_their_genus_apart(capsys):
    # GRAD4 has no instance below genus 3 at any cap; HESS_EQUIV draws
    # cap // 25 = 0 rows at cap 20
    assert main(["verify", "--genus", "2", "--seed", "1", "--relations", "GRAD4"]) == 2
    assert capsys.readouterr().err == (
        "error: no family drew a binding at genus 2: below their smallest genus: GRAD4 (genus 3)\n")
    argv = ["verify", "--genus", "3", "--seed", "1", "--cap", "20",
            "--relations", "D3_K6,HESS_EQUIV,HESS_K4"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: no family drew a binding at genus 3: below their smallest genus: "
        "HESS_K4 (genus 4), D3_K6 (genus 6); 0 rows at cap 20: HESS_EQUIV\n")


def test_the_run_order_counts_only_families_with_bindings():
    # HESS_EQUIV (order 2) draws nothing at cap 20, so THOMAE1 alone sets the order
    spec = random_curve(5, 1)
    report = run_suite(SuiteConfig(spec=spec, relations=("THOMAE1", "HESS_EQUIV"), cap=20, seed=1))
    assert report.theta["order"] == 0
    assert {r.relation_id for r in report.records} == {"THOMAE1"}
    alone = run_suite(SuiteConfig(spec=spec, relations=("THOMAE1",), cap=20, seed=1))
    assert report.theta == alone.theta
    assert [r.as_dict() for r in report.records] == [r.as_dict() for r in alone.records]
    # each family still draws from its own stream: the run's records are the
    # family's own, on the rows it draws directly
    cfg = SuiteConfig(spec=spec, relations=("HESS_EQUIV",), cap=60, seed=1)
    report = run_suite(cfg)
    family = FAMILIES["HESS_EQUIV"]
    direct = family(CurveContext.build(spec, order=2), cfg,
                    family.bindings(spec.genus, cfg, _family_rng(cfg, "HESS_EQUIV")))
    assert [r.as_dict() for r in report.records] == [r.as_dict() for r in direct]
    assert report.theta["order"] == 2 and len(direct) == 3  # cap // 25 = 2, cap // 50 = 1


def test_cli_names_an_unconverged_quadrature(tmp_path, capsys):
    # two branch points 1e-12 apart: the quadrature reaches max_order without
    # meeting refine_tol, which is an infrastructure failure of the periods
    curve = tmp_path / "close.json"
    curve.write_text(json.dumps(
        {"genus": 3, "branch_points": [-4, -2.5, -1, 0, 1.5, 1.5 + 1e-12, 3]}
    ))
    assert main(["verify", "--curve", str(curve)]) == 2
    err = capsys.readouterr().err
    assert "period quadrature did not converge" in err
    assert "quad_order 3072" in err and "refine_tol 1.0e-11" in err


@pytest.mark.parametrize("order", [1537, 5000])
def test_cli_refuses_a_quad_order_past_max_order(capsys, order):
    # 2 * 1537 > 3072: no rule past the 3072 nodes README promises is built
    assert main(["verify", "--genus", "2", "--seed", "1", "--quad-order", str(order)]) == 2
    assert f"quad_order {order} doubles past max_order 3072" in capsys.readouterr().err


def test_a_run_imports_neither_numpy_ma_nor_numpy_polynomial():
    probe = (
        "import sys\n"
        "from thomae_lab.harness import SuiteConfig, random_curve, run_suite\n"
        "report = run_suite(SuiteConfig(spec=random_curve(5, 1), seed=1, cap=10))\n"
        "assert report.records and report.all_passed()\n"
        "print(sorted(m for m in ('numpy.ma', 'numpy.polynomial') if m in sys.modules))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Peak RSS of a fresh interpreter that draws every family once at genus 8,
# cap 10**6 (2-core Xeon VM, numpy 2.4): 595 MB when the draws sorted a
# (rows, set size, 2g + 2) membership array per enumeration, 221 MB since
# they unrank straight into masks.  The child reads its own VmHWM: its
# ru_maxrss also counts the pytest process it was spawned from.
DRAW_PEAK_MB = 400


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmHWM")
def test_a_large_cap_draw_of_every_family_stays_small():
    probe = (
        "from thomae_lab.harness import FAMILIES, _Sampling, _family_rng\n"
        "s = _Sampling(10**6, False, 1)\n"
        "rows = sum(len(f.bindings(8, s, _family_rng(s, n))) for n, f in FAMILIES.items())\n"
        "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')]\n"
        "print(rows, hwm[0].split()[1])\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows, peak_kb = map(int, proc.stdout.split())
    assert rows > 10**6  # GRAD3 alone takes 10**6
    assert peak_kb / 1024 < DRAW_PEAK_MB, f"peak RSS {peak_kb / 1024:.0f} MB"


def _close_pair_run(tmp_path, points):
    """Exit code and JSON report of a seed-1 run at the default cap on the
    genus-3 curve with these branch points."""
    curve, out = tmp_path / "curve.json", tmp_path / "report.json"
    curve.write_text(json.dumps({"genus": 3, "branch_points": points}))
    code = main(["verify", "--curve", str(curve), "--seed", "1", "--format", "json",
                 "--out", str(out)])
    return code, json.loads(out.read_text())


def test_a_1e_6_cut_fails_only_gradient_triples_of_rank_2(tmp_path):
    # the pair (-1, -0.999999) leaves ten GRAD4 triples numerically rank 2:
    # their residuals are raised to 1.0, whatever the identity's own
    code, report = _close_pair_run(tmp_path, [-4, -2.5, -1, -0.999999, 0, 1.5, 3])
    fails = [r for r in report["records"] if not r["pass"]]
    assert code == 1 and len(fails) == 10
    assert all(r["relation_id"] == "GRAD4" for r in fails)
    assert all(r["residual"] >= 1.0 and r["notes"].endswith("(rank deficient!)") for r in fails)


def test_a_1e_6_first_cut_fails_twenty_gradient_triples(tmp_path):
    # HESS_EQUIV also fails here, on conditioning; its count is not pinned
    code, report = _close_pair_run(tmp_path, [-4, -3.999999, -2.5, -1, 0, 1.5, 3])
    grad4 = [r for r in report["records"] if r["relation_id"] == "GRAD4" and not r["pass"]]
    assert code == 1 and len(grad4) == 20
    assert all(r["residual"] >= 1.0 and r["notes"].endswith("(rank deficient!)") for r in grad4)


def test_a_1e_8_gap_fails_thomaeg_on_k_independence(tmp_path):
    code, report = _close_pair_run(tmp_path, [-4, -2.5, -1, 0, 1.5, 1.50000001, 3])
    assert code == 1 and report["periods"]["quad_order"] == 3072
    thomaeg = [r for r in report["records"] if r["relation_id"] == "THOMAEG" and not r["pass"]]
    assert len(thomaeg) == 1
    assert thomaeg[0]["residual"] == 1.0 and thomaeg[0]["notes"].startswith("K-indep 2.02e-08;")
