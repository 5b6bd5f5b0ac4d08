"""Suite orchestration and the ``thomae-lab`` command line interface.

``run_suite`` executes verification families in dependency order (periods,
phase calibration, Thomae formulas, relations, Schottky) over exhaustive or
seeded-sampled bindings, and assembles a reproducible report: given the same
configuration the JSON output is byte-identical (wall-clock timings are
included only on request).

Exit codes: 0 all relations pass, 1 at least one relation failed, 2 the
infrastructure (curve, periods, calibration) failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import zlib
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import numpy as np

from . import relations as rel
from . import schottky as sch
from .characteristics import enumerate_partitions
from .context import CurveContext
from .curve import CurveSpec, load_curve_file, validate_curve
from .indexsets import complement_finite, iset
from .periods import compute_periods, periods_from_json, periods_to_json
from .relations import VerificationRecord
from .thomae import (
    calibrate_phases,
    first_thomae_rhs,
    general_thomae_ratio_rhs,
    general_thomae_rhs,
    second_thomae_rhs_vector,
    snap_phase,
)

DEFAULT_TOLERANCES = {
    "THOMAE1": 1e-6,
    "THOMAE2": 1e-6,
    "THOMAEG": 1e-5,
    "THOMAEG_G5": 1e-4,
    "EKLM": 1e-8,
    "EJI": 1e-8,
    "GRAD2": 1e-8,
    "GRAD3": 1e-8,
    "GRAD4": 1e-8,
    "GRADN": 1e-6,
    "RANK": 0.5,
    "HESS_K3": 1e-6,
    "HESS_K4": 1e-6,
    "HESS_EQUIV": 1e-8,
    "HESS_RANK": 1e-8,
    "D3_K5": 1e-4,
    "D3_K6": 1e-4,
    "CONJ_M": 1e-3,
    "RJ_DET": 1e-6,
    "SCHOTTKY_R": 1e-8,
    "SCHOTTKY_DETR": 1e-10,
    "SCHOTTKY_F": 1e-7,
}


@dataclass
class SuiteConfig:
    spec: CurveSpec
    relations: tuple[str, ...] | None = None
    tolerances: dict = field(default_factory=dict)
    quad_order: int = 96
    theta_tol: float = 1e-12
    cap: int = 500
    seed: int = 0
    enable_heavy: bool = False
    include_timings: bool = False
    period_cache: str | None = None

    def tol(self, family: str) -> float:
        return self.tolerances.get(family, DEFAULT_TOLERANCES[family])


@dataclass
class Report:
    curve: dict
    periods: dict
    calibration: list
    records: list[VerificationRecord]
    timings: dict
    config: dict

    def summary(self) -> dict:
        ok = sum(1 for r in self.records if r.passed)
        return {"pass": ok, "fail": len(self.records) - ok}

    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self, include_timings: bool) -> str:
        payload = {
            "curve": self.curve,
            "periods": self.periods,
            "calibration": self.calibration,
            "records": [r.as_dict() for r in self.records],
            "summary": self.summary(),
            "config": self.config,
        }
        if include_timings:
            payload["timings"] = self.timings
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [
            f"curve {self.curve['label'] or '(unnamed)'}: genus {self.curve['genus']}, "
            f"points {self.curve['branch_points']}",
            f"periods: quad_order {self.periods['quad_order']}, est_error {self.periods['est_error']:.3e}",
            f"calibration: {len(self.calibration)} characteristics, "
            f"worst residual {max((c['residual'] for c in self.calibration), default=0.0):.3e}",
        ]
        by_family: dict[str, list[VerificationRecord]] = {}
        for r in self.records:
            by_family.setdefault(r.relation_id, []).append(r)
        for fam in sorted(by_family):
            rs = by_family[fam]
            worst = max(r.residual for r in rs)
            fails = [r for r in rs if not r.passed]
            status = "PASS" if not fails else f"FAIL ({len(fails)}/{len(rs)})"
            t = self.timings.get(fam, 0.0)
            lines.append(
                f"  {fam:<14} {status:<12} n={len(rs):<4} worst={worst:.3e} "
                f"tol={rs[0].tolerance:.0e}  [{t:.2f}s]"
            )
            for r in fails[:5]:
                lines.append(f"      failed {r.bindings} residual={r.residual:.3e} {r.notes}")
        s = self.summary()
        lines.append(f"summary: {s['pass']} passed, {s['fail']} failed")
        return "\n".join(lines)


def random_curve(g: int, seed: int, low: float = -10.0, high: float = 10.0, min_gap: float = 0.3) -> CurveSpec:
    """2g+1 sorted uniform points with a minimum gap, deterministic per seed."""
    if g < 2:
        raise ValueError("random curves start at genus 2")
    rng = np.random.default_rng([g, seed])
    while True:
        pts = np.sort(rng.uniform(low, high, size=2 * g + 1))
        if np.min(np.diff(pts)) >= min_gap:
            return validate_curve(g, pts.tolist(), label=f"random-g{g}-seed{seed}")


def _family_rng(cfg: SuiteConfig, family: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(family.encode())])


def _sample(items: list, cap: int, rng: np.random.Generator) -> list:
    if len(items) <= cap:
        return items
    idx = rng.choice(len(items), size=cap, replace=False)
    return [items[i] for i in sorted(idx)]


# ---------------------------------------------------------------------------
# Family runners
# ---------------------------------------------------------------------------

def _run_thomae1(ctx, cal, cfg, rng):
    out = []
    tol = cfg.tol("THOMAE1")
    sets = _sample(list(combinations(range(1, ctx.spec.n_finite + 1), ctx.g)), cfg.cap, rng)
    for i0 in sets:
        lhs = ctx.const(i0)
        rhs = first_thomae_rhs(ctx, i0)
        ratio = lhs / rhs
        phase, snap = snap_phase(ratio)
        residual = max(abs(abs(ratio) - 1.0), snap)
        out.append(
            VerificationRecord("THOMAE1", {"I0": i0}, residual, tol, notes=f"phase {phase:.3f}")
        )
    return out


def _run_thomae2(ctx, cal, cfg, rng):
    out = []
    tol = cfg.tol("THOMAE2")
    parts = _sample([p.part for p in enumerate_partitions(ctx.g, 1)], cfg.cap, rng)
    for i1 in parts:
        lhs = ctx.grad(i1)
        rhs = second_thomae_rhs_vector(ctx, i1)
        k = int(np.argmax(np.abs(lhs)))
        phase, snap = snap_phase(lhs[k] / rhs[k])
        residual = max(float(np.max(np.abs(lhs - phase * rhs)) / np.max(np.abs(lhs))), snap)
        out.append(
            VerificationRecord("THOMAE2", {"I1": i1}, residual, tol, notes=f"phase {phase:.3f}")
        )
    return out


def _run_thomaeg(ctx, cal, cfg, rng):
    out = []
    g = ctx.g
    orders = [2] if g in (3, 4) else ([2, 3] if g >= 5 else [])
    for m in orders:
        tol = cfg.tol("THOMAEG_G5") if (g >= 5 and m == 3) else cfg.tol("THOMAEG")
        parts = _sample([p.part for p in enumerate_partitions(g, m)], max(cfg.cap // 20, 5), rng)
        for a in parts:
            ksize = g - len(a)
            jm_fin = complement_finite(ctx.spec.n_finite, a)
            kset = jm_fin[:ksize]
            lhs = ctx.deriv(a, m).entries
            pred = np.zeros_like(lhs)
            for idx in combinations_with_replacement(range(1, g + 1), m):
                v = general_thomae_rhs(ctx, a, idx, kset)
                for perm in set(permutations(tuple(i - 1 for i in idx))):
                    pred[perm] = v
            flat = int(np.argmax(np.abs(lhs)))
            phase, snap = snap_phase(lhs.flat[flat] / pred.flat[flat])
            residual = max(float(np.max(np.abs(lhs - phase * pred)) / np.max(np.abs(lhs))), snap)
            # K-choice independence, probed on the best-conditioned entry
            kalt = jm_fin[-ksize:]
            entry = tuple(i + 1 for i in np.unravel_index(flat, lhs.shape))
            scale = float(np.max(np.abs(pred)))
            v1 = general_thomae_rhs(ctx, a, entry, kset)
            v2 = general_thomae_rhs(ctx, a, entry, kalt)
            k_indep = abs(v1 - v2) / scale
            # ratio form consistency
            i0 = iset(a + kset)
            r1 = general_thomae_ratio_rhs(ctx, a, entry, kset, i0)
            r2 = v1 / first_thomae_rhs(ctx, i0)
            ratio_resid = abs(r1 - r2) / max(abs(r1), abs(r2))
            out.append(
                VerificationRecord(
                    "THOMAEG",
                    {"Im": a, "m": m, "K": kset},
                    residual,
                    tol,
                    notes=f"phase {phase:.3f}; K-indep {k_indep:.2e}; ratio-form {ratio_resid:.2e}",
                )
            )
            if k_indep > 1e-8 or ratio_resid > 1e-10:
                out[-1].residual = max(out[-1].residual, 1.0)
    return out


def _run_eklm(ctx, cal, cfg, rng):
    g = ctx.g
    fin = range(1, ctx.spec.n_finite + 1)
    bindings = []
    for rest in combinations(fin, 3):
        others = [x for x in fin if x not in rest]
        for i_set in combinations(others, g - 1):
            j_set = tuple(x for x in others if x not in i_set)
            k, m, n = rest
            bindings.append((i_set, j_set, k, m, n))
            bindings.append((i_set, j_set, m, n, k))
    bindings = _sample(bindings, min(cfg.cap, 200), rng)
    return [rel.verify_eklm(ctx, *b, tolerance=cfg.tol("EKLM")) for b in bindings]


def _run_eji(ctx, cal, cfg, rng):
    g = ctx.g
    bindings = []
    for i0 in combinations(range(1, ctx.spec.n_finite + 1), g):
        j0 = complement_finite(ctx.spec.n_finite, i0)
        bindings.append((i0, i0[0], i0[1], j0[0], j0[1]))
    bindings = _sample(bindings, min(cfg.cap, 100), rng)
    return [rel.verify_eji(ctx, *b, tolerance=cfg.tol("EJI")) for b in bindings]


def _run_grad2(ctx, cal, cfg, rng):
    bindings = []
    for i0 in combinations(range(1, ctx.spec.n_finite + 1), ctx.g):
        j0 = complement_finite(ctx.spec.n_finite, i0)
        for k1, k2 in combinations(i0, 2):
            bindings.append((i0, k1, k2, j0[0], j0[1]))
    bindings = _sample(bindings, cfg.cap, rng)
    return [rel.verify_grad2(ctx, *b, tolerance=cfg.tol("GRAD2")) for b in bindings]


def _run_grad3(ctx, cal, cfg, rng):
    g = ctx.g
    all_idx = range(2 * g + 2)
    bindings = []
    for i_set in combinations(range(1, 2 * g + 2), g - 2):
        rest = [x for x in all_idx if x not in i_set]
        for kappas in combinations(rest, 3):
            j_set = tuple(x for x in rest if x not in kappas)
            jf = [x for x in j_set if x != 0]
            bindings.append((i_set, *kappas, jf[0], jf[1]))
    bindings = _sample(bindings, cfg.cap, rng)
    return [rel.verify_grad3(ctx, *b, tolerance=cfg.tol("GRAD3")) for b in bindings]


def _run_grad4(ctx, cal, cfg, rng):
    g = ctx.g
    if g < 3:
        return []
    all_idx = range(2 * g + 2)
    bindings = []
    for i_set in combinations(range(1, 2 * g + 2), g - 3):
        rest = [x for x in all_idx if x not in i_set]
        for kappas in combinations(rest, 5):
            j_set = tuple(x for x in rest if x not in kappas)
            jf = [x for x in j_set if x != 0]
            if len(jf) < 2:
                continue
            bindings.append((i_set, kappas, jf[0], jf[1]))
    bindings = _sample(bindings, cfg.cap // 2, rng)
    out = [rel.verify_grad4(ctx, *b, tolerance=cfg.tol("GRAD4")) for b in bindings]
    # regrouped variant on a small subsample
    for i_set, kappas, jm, jn in bindings[: max(len(bindings) // 10, 1)]:
        k1, k2, k3, k4, k5 = kappas
        out.append(
            rel.verify_grad4(
                ctx, i_set, kappas, jm, jn,
                tolerance=cfg.tol("GRAD4"),
                pairs=[(k2, k3), (k1, k4), (k2, k5), (k3, k5)],
            )
        )
    return out


def _run_gradn(ctx, cal, cfg, rng):
    g = ctx.g
    out = []
    for r in (2, 3, 4):
        if r > min(4, g):
            continue
        universe = list(range(2 * g + 2))
        for _ in range(3):
            pick = rng.choice(len(universe), size=(g - r) + (2 * r - 1), replace=False)
            chosen = sorted(universe[i] for i in pick)
            i_set = tuple(chosen[: g - r])
            b_set = tuple(chosen[g - r:])
            j_set = [x for x in universe if x not in chosen and x != 0]
            if len(j_set) < 2:
                continue
            out.append(
                rel.verify_gradN(ctx, i_set, b_set, r, j_set[0], j_set[1], tolerance=cfg.tol("GRADN"))
            )
    return out


def _run_rank(ctx, cal, cfg, rng, n_collections: int | None = None):
    g = ctx.g
    out = []
    parts = [p for p in enumerate_partitions(g, 1)]
    n = n_collections if n_collections is not None else min(cfg.cap, 200)
    for _ in range(n):
        size = int(rng.integers(2, min(g + 3, 7)))
        idx = rng.choice(len(parts), size=size, replace=False)
        sets = [parts[i].part for i in idx]
        obs, pred = rel.collection_rank(ctx, sets)
        out.append(
            VerificationRecord(
                "RANK",
                {"sets": tuple(sets)},
                0.0 if obs == pred else 1.0,
                cfg.tol("RANK"),
                notes=f"observed {obs}, predicted {pred}",
            )
        )
    # the degenerate family from the rank theorem: three sets sharing a
    # (g-2)-set plus one disjoint-ish set; intersection g-4 but rank 3
    if g >= 4:
        shared = tuple(range(1, g - 1))
        fam = [iset(shared + (g - 1 + i,)) for i in range(3)]
        extra = tuple(sorted(set(range(1, 2 * g + 2)) - set(shared))[-(g - 1):])
        fam.append(extra)
        obs, pred = rel.collection_rank(ctx, fam)
        out.append(
            VerificationRecord(
                "RANK",
                {"sets": tuple(fam), "family": "degenerate"},
                0.0 if obs == pred == 3 else 1.0,
                cfg.tol("RANK"),
                notes=f"degenerate family: observed {obs}, predicted {pred} (want 3)",
            )
        )
    return out


def _hess_bindings(ctx, ksize, cfg, rng):
    g = ctx.g
    bindings = []
    for i0 in combinations(range(1, ctx.spec.n_finite + 1), g):
        j0 = complement_finite(ctx.spec.n_finite, i0)
        for ks in combinations(i0, ksize):
            bindings.append((i0, ks, j0[0], j0[1]))
    return _sample(bindings, cfg.cap // 2, rng)


def _run_hess_k3(ctx, cal, cfg, rng):
    if ctx.g < 3:
        return []
    return [
        rel.hessian_repr(ctx, *b, tolerance=cfg.tol("HESS_K3"))
        for b in _hess_bindings(ctx, 3, cfg, rng)
    ]


def _run_hess_k4(ctx, cal, cfg, rng):
    if ctx.g < 4:
        return []
    return [
        rel.hessian_repr(ctx, *b, tolerance=cfg.tol("HESS_K4"))
        for b in _hess_bindings(ctx, 4, cfg, rng)
    ]


def _run_hess_equiv(ctx, cal, cfg, rng):
    g = ctx.g
    if g < 3:
        return []
    out = []
    fin = list(range(1, ctx.spec.n_finite + 1))
    for _ in range(min(cfg.cap // 25, 20)):
        pick = sorted(rng.choice(len(fin), size=(g - 3) + 4, replace=False))
        chosen = [fin[i] for i in pick]
        i_set, ps = tuple(chosen[: g - 3]), tuple(chosen[g - 3:])
        ia = iset(i_set + ps[:3])
        ib = iset(i_set + ps[:2] + ps[3:])
        ja = complement_finite(ctx.spec.n_finite, ia)
        jb = complement_finite(ctx.spec.n_finite, ib)
        jc = tuple(sorted(set(ja) & set(jb)))
        out.append(
            rel.hessian_repr_equiv(
                ctx, (ia, ps[:3], jc[0], jc[1]), (ib, ps[:2] + ps[3:], jc[0], jc[1]),
                tolerance=cfg.tol("HESS_EQUIV"),
            )
        )
    # |K| = 4 equivalence needs five spare indices
    if g >= 4:
        for _ in range(min(cfg.cap // 50, 10)):
            pick = sorted(rng.choice(len(fin), size=(g - 4) + 5, replace=False))
            chosen = [fin[i] for i in pick]
            i_set, ps = tuple(chosen[: g - 4]), tuple(chosen[g - 4:])
            ia = iset(i_set + ps[:4])
            ib = iset(i_set + ps[:3] + ps[4:])
            ja = complement_finite(ctx.spec.n_finite, ia)
            jb = complement_finite(ctx.spec.n_finite, ib)
            jc = tuple(sorted(set(ja) & set(jb)))
            out.append(
                rel.hessian_repr_equiv(
                    ctx, (ia, ps[:4], jc[0], jc[1]), (ib, ps[:3] + ps[4:], jc[0], jc[1]),
                    tolerance=cfg.tol("HESS_EQUIV"),
                )
            )
    return out


def _run_hess_rank(ctx, cal, cfg, rng):
    if ctx.g < 3:
        return []
    parts = _sample([p.part for p in enumerate_partitions(ctx.g, 2)],
                    cfg.cap if ctx.g <= 4 else 10, rng)
    return [rel.hessian_rank(ctx, p, tolerance=cfg.tol("HESS_RANK")) for p in parts]


def _run_d3_k5(ctx, cal, cfg, rng):
    if ctx.g < 5:
        return []
    bindings = _sample(_hess_bindings(ctx, 5, SuiteConfig(ctx.spec, cap=4 * cfg.cap), rng),
                       max(cfg.cap // 20, 20), rng)
    return [rel.third_deriv_repr(ctx, *b, tolerance=cfg.tol("D3_K5")) for b in bindings]


def _run_d3_k6(ctx, cal, cfg, rng):
    if ctx.g < 6:
        return []
    bindings = _sample(_hess_bindings(ctx, 6, SuiteConfig(ctx.spec, cap=4 * cfg.cap), rng), 3, rng)
    return [rel.third_deriv_repr(ctx, *b, tolerance=cfg.tol("D3_K6")) for b in bindings]


def _run_conj_m(ctx, cal, cfg, rng):
    g = ctx.g
    out = []
    # specialisations: the general construction must match the dedicated ones
    specs = []
    if g >= 3:
        specs.append((2, 3))
    if g >= 4:
        specs.append((2, 4))
    if g >= 5:
        specs.append((3, 5))
    for m, ksize in specs:
        i0 = tuple(range(1, g + 1))
        j0 = complement_finite(ctx.spec.n_finite, i0)
        out.append(
            rel.conjecture_m_repr(ctx, i0, i0[:ksize], m, j0[0], j0[1], tolerance=cfg.tol("CONJ_M"))
        )
    if cfg.enable_heavy and g >= 7:
        i0 = tuple(range(1, g + 1))
        j0 = complement_finite(ctx.spec.n_finite, i0)
        out.append(
            rel.conjecture_m_repr(ctx, i0, i0[:7], 4, j0[0], j0[1], tolerance=cfg.tol("CONJ_M"))
        )
    return out


def _run_rj_det(ctx, cal, cfg, rng):
    sets = _sample(list(combinations(range(1, ctx.spec.n_finite + 1), ctx.g)),
                   min(cfg.cap // 10, 20), rng)
    return [rel.riemann_jacobi_det(ctx, i0, tolerance=cfg.tol("RJ_DET")) for i0 in sets]


def _run_schottky_r(ctx, cal, cfg, rng):
    if ctx.g < 4:
        return []
    out = []
    fin = list(range(1, ctx.spec.n_finite + 1))
    for _ in range(min(cfg.cap // 25, 20)):
        pick = sorted(rng.choice(len(fin), size=ctx.g, replace=False))
        i0 = tuple(fin[i] for i in pick)
        ps = tuple(sorted(rng.choice(i0, size=4, replace=False).tolist()))
        j0 = complement_finite(ctx.spec.n_finite, i0)
        recs = sch.verify_schottky_R(
            ctx, i0, ps, j0[0], j0[1],
            tolerance=cfg.tol("SCHOTTKY_R"), det_tolerance=cfg.tol("SCHOTTKY_DETR"),
        )
        out.extend(recs)
    return out


def _run_schottky_f(ctx, cal, cfg, rng):
    cases = [c for c in sch.CASE_IDS
             if (sch._F_CASES.get(c, {}).get("genus") == ctx.g)
             or (c == "schottky.F69G3" and ctx.g == 3)
             or (c == "schottky.Ratio45" and ctx.g == 5)]
    return [sch.verify_appendix_f(ctx, c, tolerance=cfg.tol("SCHOTTKY_F")) for c in cases]


FAMILIES = {
    "THOMAE1": _run_thomae1,
    "THOMAE2": _run_thomae2,
    "THOMAEG": _run_thomaeg,
    "EKLM": _run_eklm,
    "EJI": _run_eji,
    "GRAD2": _run_grad2,
    "GRAD3": _run_grad3,
    "GRAD4": _run_grad4,
    "GRADN": _run_gradn,
    "RANK": _run_rank,
    "HESS_K3": _run_hess_k3,
    "HESS_K4": _run_hess_k4,
    "HESS_EQUIV": _run_hess_equiv,
    "HESS_RANK": _run_hess_rank,
    "D3_K5": _run_d3_k5,
    "D3_K6": _run_d3_k6,
    "CONJ_M": _run_conj_m,
    "RJ_DET": _run_rj_det,
    "SCHOTTKY_R": _run_schottky_r,
    "SCHOTTKY_F": _run_schottky_f,
}

# SCHOTTKY_R emits three record kinds; map filters to runners.
_FILTER_ALIASES = {"SCHOTTKY_DETR": "SCHOTTKY_R", "SCHOTTKY_A123": "SCHOTTKY_R",
                   "THOMAEG_G5": "THOMAEG"}


def run_suite(cfg: SuiteConfig) -> Report:
    wanted = None
    if cfg.relations is not None:
        wanted = {_FILTER_ALIASES.get(f, f) for f in cfg.relations}
        unknown = wanted - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown relation families: {sorted(unknown)}; "
                             f"known: {sorted(FAMILIES)}")

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    periods = None
    if cfg.period_cache:
        path = Path(cfg.period_cache)
        if path.exists():
            try:
                periods = periods_from_json(cfg.spec, json.loads(path.read_text()))
                if periods.quad_order < cfg.quad_order:  # stale lower-order cache
                    periods = None
            except ValueError:
                periods = None
    if periods is None:
        periods = compute_periods(cfg.spec, cfg.quad_order)
        if cfg.period_cache:
            Path(cfg.period_cache).write_text(json.dumps(periods_to_json(periods)))
    ctx = CurveContext.build(cfg.spec, periods=periods, theta_tol=cfg.theta_tol)
    timings["periods"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cal = calibrate_phases(ctx)
    calibration = [
        {
            "char": str(c),
            "set": list(cal.sets[c]),
            "phase": [cal.phases[c].real, cal.phases[c].imag],
            "residual": cal.residuals[c],
        }
        for c in sorted(cal.phases, key=lambda c: cal.sets[c])
    ]
    timings["calibration"] = time.perf_counter() - t0

    records: list[VerificationRecord] = []
    for family, runner in FAMILIES.items():
        if wanted is not None and family not in wanted:
            continue
        t0 = time.perf_counter()
        records.extend(runner(ctx, cal, cfg, _family_rng(cfg, family)))
        timings[family] = time.perf_counter() - t0

    return Report(
        curve={
            "label": cfg.spec.label,
            "genus": cfg.spec.genus,
            "branch_points": list(cfg.spec.branch_points),
            "hash": cfg.spec.content_hash(),
        },
        periods={"quad_order": periods.quad_order, "est_error": periods.est_error},
        calibration=calibration,
        records=records,
        timings={k: round(v, 6) for k, v in timings.items()},
        config={
            "relations": sorted(cfg.relations) if cfg.relations else None,
            "quad_order": cfg.quad_order,
            "theta_tol": cfg.theta_tol,
            "cap": cfg.cap,
            "seed": cfg.seed,
            "enable_heavy": cfg.enable_heavy,
            "tolerances": dict(sorted(cfg.tolerances.items())),
        },
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parse_tolerances(values: list[str]) -> dict:
    out = {}
    for item in values:
        for piece in item.split(","):
            if not piece:
                continue
            name, _, val = piece.partition("=")
            name = name.strip().upper()
            if name not in DEFAULT_TOLERANCES:
                raise argparse.ArgumentTypeError(f"unknown tolerance family {name!r}")
            out[name] = float(val)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thomae-lab",
        description="Numerical verification of theta-constant relations on "
        "hyperelliptic curves with real branch points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run the verification suite on one curve")
    src = v.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve", help="path to a curve spec JSON file")
    src.add_argument("--genus", type=int, help="genus of a random curve")
    v.add_argument("--seed", type=int, default=0, help="random seed (curve and sampling)")
    v.add_argument("--relations", help="comma-separated family filter, e.g. GRAD3,HESS_K4")
    v.add_argument("--tol-family", action="append", default=[], metavar="NAME=VAL",
                   help="override a family tolerance (repeatable)")
    v.add_argument("--quad-order", type=int, default=96)
    v.add_argument("--theta-tol", type=float, default=1e-12)
    v.add_argument("--cap", type=int, default=500, help="binding cap per family")
    v.add_argument("--enable-heavy", action="store_true",
                   help="include multiplicity >= 4 conjecture runs (needs genus >= 7)")
    v.add_argument("--format", choices=["json", "text"], default="text")
    v.add_argument("--out", help="write the report to this path instead of stdout")
    v.add_argument("--period-cache", help="JSON period cache path")
    v.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in JSON output "
                   "(reports are byte-identical only without them)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.curve:
            spec = load_curve_file(args.curve)
        else:
            spec = random_curve(args.genus, args.seed)
        relations = tuple(s.strip().upper() for s in args.relations.split(",")) if args.relations else None
        cfg = SuiteConfig(
            spec=spec,
            relations=relations,
            tolerances=_parse_tolerances(args.tol_family),
            quad_order=args.quad_order,
            theta_tol=args.theta_tol,
            cap=args.cap,
            seed=args.seed,
            enable_heavy=args.enable_heavy,
            include_timings=args.timings,
            period_cache=args.period_cache,
        )
        report = run_suite(cfg)
    except Exception as exc:  # infrastructure failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json(args.timings) if args.format == "json" else report.to_text()
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
