"""The report from its record tables against the report from record rows.

The JSON writer fills fixed text around each table's columns; the oracle is
the payload as it was built before the tables, ``json.dumps`` of every row's
``as_dict()``.  The text report reads the columns; its oracle groups the
rows.  Both must agree byte for byte, on real runs and on hand-built tables
that hold what no run gives: NaN and infinite residuals, notes with
characters json escapes, no records at all.
"""

import dataclasses
import json

import numpy as np
import pytest

from conftest import assert_same_text
from thomae_lab import harness
from thomae_lab.harness import FAMILIES, Report, SuiteConfig, main, random_curve, run_suite
from thomae_lab.relations import make_records

THOMAE = ("THOMAE1", "THOMAE2", "THOMAEG")


def rows_json(report: Report, include_timings: bool) -> str:
    """The JSON report from the rows: one ``json.dumps`` of the payload."""
    records = [r.as_dict() for r in report.records]
    ok = sum(r["pass"] for r in records)
    payload = {"curve": report.curve, "periods": report.periods, "theta": report.theta,
               "records": records, "summary": {"pass": ok, "fail": len(records) - ok},
               "config": report.config}
    if include_timings:
        payload["timings"] = report.timings
    return json.dumps(payload, sort_keys=True, indent=2)


def rows_text(report: Report, include_timings: bool) -> str:
    """The text report from the rows, grouped by relation id."""
    lines = [
        f"curve {report.curve['label'] or '(unnamed)'}: genus {report.curve['genus']}, "
        f"points {report.curve['branch_points']}",
        f"periods: quad_order {report.periods['quad_order']}, "
        f"est_error {report.periods['est_error']:.3e}",
        f"theta lattice: order {report.theta['order']}, radius {report.theta['radius']}, "
        f"{report.theta['points']} points",
    ]
    if include_timings:
        stages = ("bindings", "periods", "lattice")
        lines.append("stages: " + ", ".join(f"{k} {report.timings[k]:.2f}s" for k in stages))
    by_family = {}
    for r in report.records:
        by_family.setdefault(r.relation_id, []).append(r)
    for fam in sorted(by_family):
        rs = by_family[fam]
        worst = np.max([r.residual for r in rs])
        fails = [r for r in rs if not r.passed]
        status = "PASS" if not fails else f"FAIL ({len(fails)}/{len(rs)})"
        lo, hi = min(r.tolerance for r in rs), max(r.tolerance for r in rs)
        tol = f"{lo:.0e}" if lo == hi else f"{lo:.0e}..{hi:.0e}"
        line = f"  {fam:<14} {status:<12} n={len(rs):<4} worst={worst:.3e} tol={tol}"
        if include_timings and fam in report.timings:
            line += f"  [{report.timings[fam]:.2f}s]"
        lines.append(line)
        for r in fails[:5]:
            lines.append(f"      failed {r.bindings} residual={r.residual:.3e} {r.notes}")
    passed = sum(r.passed for r in report.records)
    lines.append(f"summary: {passed} passed, {len(report.records) - passed} failed")
    return "\n".join(lines)


def assert_same_reports(report: Report) -> None:
    for include_timings in (False, True):
        assert_same_text(report.to_json(include_timings), rows_json(report, include_timings))
        assert_same_text(report.to_text(include_timings), rows_text(report, include_timings))


@pytest.mark.parametrize("relations", [None, THOMAE], ids=["suite", "thomae"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_the_tables_write_the_rows_report(g, seed, relations):
    report = run_suite(SuiteConfig(spec=random_curve(g, seed), relations=relations, seed=seed))
    assert_same_reports(report)
    ids = {r.relation_id for r in report.records}
    if relations is None and g >= 4:
        # the interleaved SCHOTTKY_R table, string case ids (g <= 5) and
        # RANK's nested sets of several sizes, with its degenerate family
        assert {"SCHOTTKY_R", "SCHOTTKY_DETR", "SCHOTTKY_A123", "RANK"} <= ids
        assert ("SCHOTTKY_F" in ids) == (g <= 5)
        sets = [r.bindings["sets"] for r in report.records if r.relation_id == "RANK"]
        assert len({len(s) for s in sets}) > 1
        assert any(r.bindings.get("family") == "degenerate" for r in report.records)


@pytest.mark.slow
@pytest.mark.parametrize("g,seed,cap,heavy", [(7, 1, 500, True), (8, 2, 100, False)])
def test_the_tables_write_the_rows_report_at_genus_7_and_8(g, seed, cap, heavy):
    cfg = SuiteConfig(spec=random_curve(g, seed), cap=cap, seed=seed, enable_heavy=heavy)
    assert_same_reports(run_suite(cfg))


def hand_built(*tables) -> Report:
    return Report(curve={"label": "", "genus": 2, "branch_points": [1.0, 2.0, 3.0, 4.0, 5.0],
                         "hash": "x"},
                  periods={"quad_order": 96, "est_error": 1e-16},
                  theta={"order": 0, "points": 1, "radius": 1.0}, tables=list(tables),
                  timings={"bindings": 0.0, "periods": 0.0, "lattice": 0.0, "EKLM": 0.5},
                  config={"relations": None})


def test_non_finite_residuals_and_escaped_notes():
    residual = np.array([np.nan, np.inf, -np.inf, 0.0, 1e-300, 1e300, 5e-324, -0.0])
    notes = ['a "quote"', "back\\slash", "new\nline", "tab\tand \x00", "été",
             "\U0001d703 ≠ 0", "", "plain"]
    table = make_records("EKLM", residual, 1e-8, notes=notes, masks=("I",),
                         I=np.array([0b110, 0, 1, 0b1010, 0b110, 0, 1, 0b1010]),
                         k=np.arange(8), s=["x"] * 8)
    report = hand_built(table, make_records("EJI", np.zeros(0), 1e-8, I0=np.zeros(0)))
    report.curve["label"] = '"records": []'  # the writer splices its records at that text
    assert_same_reports(report)
    text = report.to_json(False)
    for spelled in ("NaN", "Infinity", "-Infinity", "5e-324", "-0.0", r"\u00e9t\u00e9",
                    r"\ud835\udf03", r"new\nline", r"back\\slash", r"a \"quote\"", r"\u0000"):
        assert spelled in text, spelled


def test_rows_that_bind_no_slot_and_tables_without_slots():
    # -1 (or None in a list) leaves a slot out of its row's bindings
    table = make_records(["A", "B", "A"], [0.0, 1.0, 2.0], [1.0, 1.0, 3.0], masks=("I", "S"),
                         I=np.array([-1, 0b110, -1]), j=np.array([4, -1, -1]),
                         S=np.array([[0b11, -1], [-1, -1], [0, 0b1000]]),
                         f=[None, "x", None])
    assert [r.bindings for r in table] == [
        {"j": 4, "S": ((0, 1),)}, {"I": (1, 2), "S": (), "f": "x"}, {"S": ((), (3,))}]
    assert_same_reports(hand_built(table, make_records("C", [0.5], 1.0),
                                   make_records("D", [0.5], 1.0, masks=("I",), I=[-1])))


def test_an_empty_report():
    for report in (hand_built(), hand_built(make_records("EKLM", np.zeros(0), 1e-8))):
        assert_same_reports(report)
        assert report.to_json(False).count('"records": [],') == 1
        assert report.summary() == {"pass": 0, "fail": 0} and report.all_passed()
    empty = run_suite(SuiteConfig(spec=random_curve(2, 1), relations=(), seed=1))
    assert empty.tables == [] and empty.records == []
    assert_same_reports(empty)


def test_a_nan_residual_fails_everywhere(monkeypatch, capsys):
    # residual < tolerance is False for NaN, in every reader of the verdict
    family = FAMILIES["THOMAE1"]

    def verify(ctx, rows, tol):
        residual = np.zeros(len(rows))
        residual[1] = np.nan
        return make_records("THOMAE1", residual, tol["THOMAE1"], masks=("I0",), I0=rows[:, 0])

    monkeypatch.setitem(FAMILIES, "THOMAE1", dataclasses.replace(family, verify=verify))
    report = run_suite(SuiteConfig(spec=random_curve(2, 1), relations=("THOMAE1",), seed=1))
    (table,) = report.tables
    assert table.passed.tolist() == [True, False] + [True] * 8
    assert report.summary() == {"pass": 9, "fail": 1} and not report.all_passed()
    assert [r.passed for r in report.records].count(False) == 1
    payload = json.loads(report.to_json(False))
    assert [r["pass"] for r in payload["records"]].count(False) == 1
    assert payload["records"][1]["pass"] is False and payload["summary"]["fail"] == 1
    assert "THOMAE1        FAIL (1/10)  n=10   worst=nan" in report.to_text()
    assert "residual=nan" in report.to_text()
    argv = ["verify", "--genus", "2", "--seed", "1", "--relations", "THOMAE1"]
    assert main(argv) == 1
    assert "summary: 9 passed, 1 failed" in capsys.readouterr().out
    assert main([*argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["summary"] == {"pass": 9, "fail": 1}


def test_json_slabs_write_one_slab_per_table(monkeypatch):
    # the records of a family are written in one slab, and no run or report
    # builds a record row
    def no_rows(*args, **kwargs):
        raise AssertionError("a record row was built")

    monkeypatch.setattr(harness.RecordTable, "rows", no_rows)
    report = run_suite(SuiteConfig(spec=random_curve(4, 1), seed=1))
    slabs = list(report.json_slabs(True))
    assert len(slabs) == len(report.tables) + 2
    assert [slab.count('"relation_id": ') for slab in slabs[1:-1]] == \
        [len(table) for table in report.tables]
    report.summary(), report.all_passed(), report.to_text(True)
