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
from typing import Callable

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

    def to_text(self, include_timings: bool = False) -> str:
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
            line = (f"  {fam:<14} {status:<12} n={len(rs):<4} worst={worst:.3e} "
                    f"tol={rs[0].tolerance:.0e}")
            if include_timings and fam in self.timings:
                line += f"  [{self.timings[fam]:.2f}s]"
            lines.append(line)
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
# Family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One verification family as a table entry.

    ``bindings(ctx, cfg, rng)`` gives the argument tuples and
    ``verify(ctx, *args, tolerance=..., **extra)`` turns each into one record
    or a list of records.  ``tolerances`` maps further verifier keywords to
    tolerance keys.  Below ``min_genus`` the family has no instances.
    """

    name: str
    bindings: Callable
    verify: Callable
    min_genus: int = 2
    tolerances: tuple[tuple[str, str], ...] = ()

    def __call__(self, ctx: CurveContext, cfg: SuiteConfig, rng: np.random.Generator) -> list:
        if ctx.g < self.min_genus:
            return []
        tols = {"tolerance": cfg.tol(self.name)}
        tols.update((kw, cfg.tol(key)) for kw, key in self.tolerances)
        out = []
        for args in self.bindings(ctx, cfg, rng):
            rec = self.verify(ctx, *args, **tols)
            out.extend(rec if isinstance(rec, list) else [rec])
        return out


def _i0_splits(ctx, ksize: int) -> list:
    """(I_0, K, j_m, j_n) for every finite g-set I_0, every ksize-subset K of
    I_0, and the two smallest indices j_m < j_n of J_0."""
    out = []
    for i0 in combinations(range(1, ctx.spec.n_finite + 1), ctx.g):
        j0 = complement_finite(ctx.spec.n_finite, i0)
        out.extend((i0, ks, j0[0], j0[1]) for ks in combinations(i0, ksize))
    return out


def _kappa_splits(ctx, isize: int, nk: int) -> list:
    """(I, kappas, j_m, j_n) over all indices 0..2g+1: I a finite isize-set,
    kappas nk further indices, j_m < j_n the two smallest finite ones left."""
    all_idx = range(2 * ctx.g + 2)
    out = []
    for i_set in combinations(range(1, 2 * ctx.g + 2), isize):
        rest = [x for x in all_idx if x not in i_set]
        for kappas in combinations(rest, nk):
            jf = [x for x in rest if x not in kappas and x != 0]
            out.append((i_set, kappas, jf[0], jf[1]))
    return out


def _parts(ctx, m: int, cap: int, rng: np.random.Generator) -> list:
    """Sampled finite parts of the multiplicity-m partitions, one per tuple."""
    return [(p,) for p in _sample([p.part for p in enumerate_partitions(ctx.g, m)], cap, rng)]


def _thomae1_bindings(ctx, cfg, rng):
    return [(i0,) for i0, *_ in _sample(_i0_splits(ctx, 0), cfg.cap, rng)]


def _thomae1(ctx, i0, tolerance):
    ratio = ctx.calibration.ratios[ctx.char(i0)]
    phase, snap = snap_phase(ratio)
    residual = max(abs(abs(ratio) - 1.0), snap)
    return VerificationRecord("THOMAE1", {"I0": i0}, residual, tolerance, notes=f"phase {phase:.3f}")


def _thomae2(ctx, i1, tolerance):
    lhs = ctx.grad(i1)
    rhs = second_thomae_rhs_vector(ctx, i1)
    k = int(np.argmax(np.abs(lhs)))
    phase, snap = snap_phase(lhs[k] / rhs[k])
    residual = max(float(np.max(np.abs(lhs - phase * rhs)) / np.max(np.abs(lhs))), snap)
    return VerificationRecord("THOMAE2", {"I1": i1}, residual, tolerance, notes=f"phase {phase:.3f}")


def _thomaeg_bindings(ctx, cfg, rng):
    for m in (2, 3) if ctx.g >= 5 else (2,):
        for (a,) in _parts(ctx, m, max(cfg.cap // 20, 5), rng):
            yield a, m


def _thomaeg(ctx, a, m, tolerance, tolerance_m3):
    g = ctx.g
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
    if k_indep > 1e-8 or ratio_resid > 1e-10:
        residual = max(residual, 1.0)
    return VerificationRecord(
        "THOMAEG",
        {"Im": a, "m": m, "K": kset},
        residual,
        tolerance_m3 if m == 3 else tolerance,  # m = 3 runs from genus 5 on
        notes=f"phase {phase:.3f}; K-indep {k_indep:.2e}; ratio-form {ratio_resid:.2e}",
    )


def _eklm_bindings(ctx, cfg, rng):
    fin = range(1, ctx.spec.n_finite + 1)
    bindings = []
    for k, m, n in combinations(fin, 3):
        others = [x for x in fin if x not in (k, m, n)]
        for i_set in combinations(others, ctx.g - 1):
            j_set = tuple(x for x in others if x not in i_set)
            bindings += [(i_set, j_set, k, m, n), (i_set, j_set, m, n, k)]
    return _sample(bindings, min(cfg.cap, 200), rng)


def _eji_bindings(ctx, cfg, rng):
    splits = _sample(_i0_splits(ctx, 0), min(cfg.cap, 100), rng)
    return [(i0, i0[0], i0[1], jm, jn) for i0, _, jm, jn in splits]


def _grad2_bindings(ctx, cfg, rng):
    return [(i0, *ks, jm, jn) for i0, ks, jm, jn in _sample(_i0_splits(ctx, 2), cfg.cap, rng)]


def _grad3_bindings(ctx, cfg, rng):
    splits = _sample(_kappa_splits(ctx, ctx.g - 2, 3), cfg.cap, rng)
    return [(i_set, *kappas, jm, jn) for i_set, kappas, jm, jn in splits]


def _grad4_bindings(ctx, cfg, rng):
    bindings = _sample(_kappa_splits(ctx, ctx.g - 3, 5), cfg.cap // 2, rng)
    # the regrouped variant on a small subsample
    regrouped = [
        (i_set, (k1, k2, k3, k4, k5), jm, jn, [(k2, k3), (k1, k4), (k2, k5), (k3, k5)])
        for i_set, (k1, k2, k3, k4, k5), jm, jn in bindings[: max(len(bindings) // 10, 1)]
    ]
    return bindings + regrouped


def _grad4(ctx, i_set, kappas, j_m, j_n, pairs=None, *, tolerance):
    return rel.verify_grad4(ctx, i_set, kappas, j_m, j_n, tolerance=tolerance, pairs=pairs)


def _gradn_bindings(ctx, cfg, rng):
    g = ctx.g
    universe = list(range(2 * g + 2))
    for r in range(2, min(4, g) + 1):
        for _ in range(3):
            pick = rng.choice(len(universe), size=(g - r) + (2 * r - 1), replace=False)
            chosen = sorted(universe[i] for i in pick)
            j_set = [x for x in universe if x not in chosen and x != 0]
            yield tuple(chosen[: g - r]), tuple(chosen[g - r:]), r, j_set[0], j_set[1]


def _rank_bindings(ctx, cfg, rng):
    g = ctx.g
    parts = [p.part for p in enumerate_partitions(g, 1)]
    for _ in range(min(cfg.cap, 200)):
        size = int(rng.integers(2, min(g + 3, 7)))
        idx = rng.choice(len(parts), size=size, replace=False)
        yield [parts[i] for i in idx], False
    # the degenerate family from the rank theorem: three sets sharing a
    # (g-2)-set plus one disjoint-ish set; intersection g-4 but rank 3
    if g >= 4:
        shared = tuple(range(1, g - 1))
        fam = [iset(shared + (g - 1 + i,)) for i in range(3)]
        fam.append(tuple(sorted(set(range(1, 2 * g + 2)) - set(shared))[-(g - 1):]))
        yield fam, True


def _rank(ctx, sets, degenerate, tolerance):
    obs, pred = rel.collection_rank(ctx, sets)
    if degenerate:
        return VerificationRecord(
            "RANK",
            {"sets": tuple(sets), "family": "degenerate"},
            0.0 if obs == pred == 3 else 1.0,
            tolerance,
            notes=f"degenerate family: observed {obs}, predicted {pred} (want 3)",
        )
    return VerificationRecord(
        "RANK", {"sets": tuple(sets)}, 0.0 if obs == pred else 1.0, tolerance,
        notes=f"observed {obs}, predicted {pred}",
    )


def _hess_equiv_bindings(ctx, cfg, rng):
    g, n = ctx.g, ctx.spec.n_finite
    fin = list(range(1, n + 1))
    # |K| = 4 equivalence needs five spare indices
    for ksize, count in ((3, min(cfg.cap // 25, 20)), (4, min(cfg.cap // 50, 10))):
        if ksize > g:
            break
        for _ in range(count):
            pick = sorted(rng.choice(len(fin), size=g + 1, replace=False))
            chosen = [fin[i] for i in pick]
            i_set, ps = tuple(chosen[: g - ksize]), tuple(chosen[g - ksize:])
            ka, kb = ps[:ksize], ps[: ksize - 1] + ps[ksize:]
            ia, ib = iset(i_set + ka), iset(i_set + kb)
            jc = sorted(set(complement_finite(n, ia)) & set(complement_finite(n, ib)))
            yield (ia, ka, jc[0], jc[1]), (ib, kb, jc[0], jc[1])


def _d3_k5_bindings(ctx, cfg, rng):
    return _sample(_sample(_i0_splits(ctx, 5), 2 * cfg.cap, rng), max(cfg.cap // 20, 20), rng)


def _d3_k6_bindings(ctx, cfg, rng):
    return _sample(_sample(_i0_splits(ctx, 6), 2 * cfg.cap, rng), 3, rng)


def _conj_m_bindings(ctx, cfg, rng):
    # specialisations: the general construction must match the dedicated ones
    i0 = tuple(range(1, ctx.g + 1))
    j0 = complement_finite(ctx.spec.n_finite, i0)
    specs = [(2, 3), (2, 4), (3, 5)] + ([(4, 7)] if cfg.enable_heavy else [])
    return [(i0, i0[:ksize], m, j0[0], j0[1]) for m, ksize in specs if ksize <= ctx.g]


def _rj_det_bindings(ctx, cfg, rng):
    return [(i0,) for i0, *_ in _sample(_i0_splits(ctx, 0), min(cfg.cap // 10, 20), rng)]


def _schottky_r_bindings(ctx, cfg, rng):
    fin = list(range(1, ctx.spec.n_finite + 1))
    for _ in range(min(cfg.cap // 25, 20)):
        pick = sorted(rng.choice(len(fin), size=ctx.g, replace=False))
        i0 = tuple(fin[i] for i in pick)
        ps = tuple(sorted(rng.choice(i0, size=4, replace=False).tolist()))
        j0 = complement_finite(ctx.spec.n_finite, i0)
        yield i0, ps, j0[0], j0[1]


def _schottky_f_bindings(ctx, cfg, rng):
    return [(c,) for c in sch.CASE_IDS
            if (sch._F_CASES.get(c, {}).get("genus") == ctx.g)
            or (c == "schottky.F69G3" and ctx.g == 3)
            or (c == "schottky.Ratio45" and ctx.g == 5)]


# In run order.  Each family samples from its own stream, seeded by
# crc32(name): reordering a family's draws changes its sampled bindings.
FAMILIES = {f.name: f for f in (
    Family("THOMAE1", _thomae1_bindings, _thomae1),
    Family("THOMAE2", lambda ctx, cfg, rng: _parts(ctx, 1, cfg.cap, rng), _thomae2),
    Family("THOMAEG", _thomaeg_bindings, _thomaeg, 3, (("tolerance_m3", "THOMAEG_G5"),)),
    Family("EKLM", _eklm_bindings, rel.verify_eklm),
    Family("EJI", _eji_bindings, rel.verify_eji),
    Family("GRAD2", _grad2_bindings, rel.verify_grad2),
    Family("GRAD3", _grad3_bindings, rel.verify_grad3),
    Family("GRAD4", _grad4_bindings, _grad4, 3),
    Family("GRADN", _gradn_bindings, rel.verify_gradN),
    Family("RANK", _rank_bindings, _rank),
    Family("HESS_K3", lambda ctx, cfg, rng: _sample(_i0_splits(ctx, 3), cfg.cap // 2, rng),
           rel.hessian_repr, 3),
    Family("HESS_K4", lambda ctx, cfg, rng: _sample(_i0_splits(ctx, 4), cfg.cap // 2, rng),
           rel.hessian_repr, 4),
    Family("HESS_EQUIV", _hess_equiv_bindings, rel.hessian_repr_equiv, 3),
    Family("HESS_RANK", lambda ctx, cfg, rng: _parts(ctx, 2, cfg.cap if ctx.g <= 4 else 10, rng),
           rel.hessian_rank, 3),
    Family("D3_K5", _d3_k5_bindings, rel.third_deriv_repr, 5),
    Family("D3_K6", _d3_k6_bindings, rel.third_deriv_repr, 6),
    Family("CONJ_M", _conj_m_bindings, rel.conjecture_m_repr, 3),
    Family("RJ_DET", _rj_det_bindings, rel.riemann_jacobi_det),
    Family("SCHOTTKY_R", _schottky_r_bindings, sch.verify_schottky_R, 4,
           (("det_tolerance", "SCHOTTKY_DETR"),)),
    Family("SCHOTTKY_F", _schottky_f_bindings, sch.verify_appendix_f),
)}

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
            except (ValueError, KeyError, TypeError):  # stale or malformed cache
                periods = None
    if periods is None:
        periods = compute_periods(cfg.spec, cfg.quad_order)
        if cfg.period_cache:
            Path(cfg.period_cache).write_text(json.dumps(periods_to_json(periods)))
    ctx = CurveContext.build(cfg.spec, periods=periods, theta_tol=cfg.theta_tol)
    timings["periods"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cal = ctx.calibration = calibrate_phases(ctx)
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
        records.extend(runner(ctx, cfg, _family_rng(cfg, family)))
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
                   help="include wall-clock timings in the report "
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
            period_cache=args.period_cache,
        )
        report = run_suite(cfg)
    except Exception as exc:  # infrastructure failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json(args.timings) if args.format == "json" else report.to_text(args.timings)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
