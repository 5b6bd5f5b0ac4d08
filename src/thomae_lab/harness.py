"""Suite orchestration and the ``thomae-lab`` command line interface.

``run_suite`` draws every family's exhaustive or seeded-sampled bindings
(once per run shape in a process: :func:`_drawn`), computes the periods,
builds the theta engine, and runs the verification families in table
order (Thomae formulas, relations, Schottky).  It
assembles a reproducible report of one record table per family, in run
order: given the same configuration the JSON output is byte-identical
(wall-clock timings are included only on request).  One fixed-schema
writer, :func:`_json_records`, writes the records of a table from its
columns, and no run builds a record object.
Every phase the Thomae families compare is predicted by :mod:`thomae`, none
is fitted, so a misfit of the first Thomae formula is a failed THOMAE1 record.

Exit codes: 0 all relations pass, 1 at least one relation failed, 2 the
infrastructure (curve, periods, lattice) failed, no family drew a binding,
or the report could not be written to ``--out`` (an ``--out`` that is a
directory, in a missing directory or not writable is refused before the
run).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from . import relations as rel
from . import schottky as sch
from .characteristics import completed_part, part_sizes
from .context import CurveContext
from .curve import CurveSpec, check_genus, load_curve_file, validate_curve
from .indexsets import finite_mask, index_mask, index_masks, index_rows, low_indices
from .periods import compute_periods
from .relations import (DEFAULT_TOLERANCES, UNBOUND, RecordTable, VerificationRecord,
                        make_records)
from .thomae import calibrate_phases, general_thomae_batch, thomae_prefactor


def _check_tolerance(family: str, value: float) -> None:
    """A tolerance must be a finite positive number: a residual is never
    below zero or NaN, so any other value fails every record."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"tolerance for {family} must be finite and > 0, got {value}")


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

    def __post_init__(self):
        if self.spec.genus < 2:
            raise ValueError(f"the suite needs genus >= 2, got genus {self.spec.genus}")
        if self.cap < 1:
            raise ValueError(f"cap must be at least 1, got {self.cap}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.quad_order < 1:
            raise ValueError(f"quad_order must be at least 1, got {self.quad_order}")
        if not (math.isfinite(self.theta_tol) and self.theta_tol > 0):
            raise ValueError(f"theta_tol must be finite and > 0, got {self.theta_tol}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance families: {sorted(unknown)}; "
                             f"known: {sorted(DEFAULT_TOLERANCES)}")
        for family, value in self.tolerances.items():
            _check_tolerance(family, value)

    @cached_property
    def tolerance_table(self) -> Mapping[str, float]:
        """DEFAULT_TOLERANCES overlaid with ``tolerances``, read-only: built once
        per run, the one mapping every verifier reads."""
        return MappingProxyType({**DEFAULT_TOLERANCES, **self.tolerances})


# The text before each of a record's six fields as json.dumps(...,
# sort_keys=True, indent=2) writes it in the report (bindings, notes, pass,
# relation_id, residual, tolerance), and the text after the record.
_RECORD = ('    {\n      "bindings": ', ',\n      "notes": ', ',\n      "pass": ',
           ',\n      "relation_id": ', ',\n      "residual": ', ',\n      "tolerance": ',
           '\n    },\n')
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling


def _json(value, indent: str) -> str:
    """An int, a str or nested tuples of ints as ``json.dumps(value,
    indent=2)`` writes them ``indent`` deep."""
    if not isinstance(value, tuple):
        return encode_basestring_ascii(value) if isinstance(value, str) else repr(value)
    if not value:
        return "[]"
    inner = indent + "  "
    items = [_json(v, inner) for v in value] if isinstance(value[0], tuple) else map(repr, value)
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _json_floats(values: list) -> list[str]:
    """Floats as json writes them: their repr, or NaN, Infinity, -Infinity."""
    return [_FLOATS.get(text, text) for text in map(repr, values)]


def _json_records(table: RecordTable) -> str:
    """The records of a table, ``json.dumps`` text between the brackets of
    the report's list: the text of every field of every row in turn with
    :data:`_RECORD`'s, joined once.  A slot's text is written once per
    distinct value; a row that does not bind a slot leaves it out."""
    slots = []
    for name in sorted(table.slots):
        keys = table.column(table.slots[name])
        head = " " * 8 + encode_basestring_ascii(name) + ": "
        texts = {key: head + _json(table.bound(name, key), " " * 8)
                 for key in set(keys) if key not in UNBOUND}
        slots.append([texts.get(key, "") for key in keys])
    rows = (",\n".join(filter(None, row)) for row in zip(*slots))
    binds = [["{\n" + b + "\n      }" if b else "{}" for b in rows]] if slots else ["{}"]
    tols = table.tolerance.tolist()
    spelled = dict(zip(distinct := list(dict.fromkeys(tols)), _json_floats(distinct)))
    fields = (list(map(encode_basestring_ascii, table.column(table.notes))),
              ["true" if ok else "false" for ok in table.passed.tolist()],
              list(map(encode_basestring_ascii, table.column(table.relation_id))),
              _json_floats(table.residual.tolist()), [spelled[t] for t in tols])
    pieces = [_RECORD[0], *binds, *[p for pair in zip(_RECORD[1:], fields) for p in pair],
              _RECORD[-1]]
    n, stride = len(table), len(pieces)
    parts = [""] * (stride * n)
    for i, piece in enumerate(pieces):
        parts[i::stride] = [piece] * n if isinstance(piece, str) else piece
    parts[-1] = "\n    }"
    return "".join(parts)


@dataclass
class Report:
    curve: dict
    periods: dict
    theta: dict
    tables: list[RecordTable]  # the records of each family run, in run order
    timings: dict
    config: dict

    @property
    def records(self) -> list[VerificationRecord]:
        """Every record as a row, in run order, built on each call: the
        report itself reads the tables."""
        return [rec for table in self.tables for rec in table.rows()]

    def summary(self) -> dict:
        ok = sum(int(np.count_nonzero(table.passed)) for table in self.tables)
        return {"pass": ok, "fail": sum(map(len, self.tables)) - ok}

    def all_passed(self) -> bool:
        return all(table.passed.all() for table in self.tables)

    def json_slabs(self, include_timings: bool) -> Iterator[str]:
        """The JSON report, byte for byte ``json.dumps(payload,
        sort_keys=True, indent=2)`` of the payload below with its records
        in run order, as consecutive slabs: the fields before the records,
        the records of each table (:func:`_json_records`), and the rest.
        A slab is never more than one family's records."""
        payload = {
            "curve": self.curve,
            "periods": self.periods,
            "theta": self.theta,
            "records": [],
            "summary": self.summary(),
            "config": self.config,
        }
        if include_timings:
            payload["timings"] = self.timings
        # no string in the report holds an unescaped quote, so the records key
        # is the one place the text reads "records": []
        head, tail = json.dumps(payload, sort_keys=True, indent=2).split('"records": []')
        yield head + '"records": ['
        sep = "\n"
        for table in self.tables:
            if len(table):
                yield sep + _json_records(table)
                sep = ",\n"
        yield ("]" if sep == "\n" else "\n  ]") + tail

    def to_json(self, include_timings: bool) -> str:
        """The JSON report, joined from :meth:`json_slabs`."""
        return "".join(self.json_slabs(include_timings))

    def to_text(self, include_timings: bool = False) -> str:
        lines = [
            f"curve {self.curve['label'] or '(unnamed)'}: genus {self.curve['genus']}, "
            f"points {self.curve['branch_points']}",
            f"periods: quad_order {self.periods['quad_order']}, est_error {self.periods['est_error']:.3e}",
            f"theta lattice: order {self.theta['order']}, radius {self.theta['radius']}, "
            f"{self.theta['points']} points",
        ]
        if include_timings:
            stages = ("bindings", "periods", "lattice")
            lines.append("stages: " + ", ".join(f"{k} {self.timings[k]:.2f}s" for k in stages))
        by_family: dict[str, list] = {}  # id -> (table, rows of the id) in run order
        for table in self.tables:
            ids = np.array(table.column(table.relation_id))
            for rid in dict.fromkeys(ids.tolist()):
                by_family.setdefault(rid, []).append((table, np.flatnonzero(ids == rid)))
        for fam in sorted(by_family):
            parts = by_family[fam]
            residual, tolerance = (np.concatenate([getattr(t, column)[at] for t, at in parts])
                                   for column in ("residual", "tolerance"))
            fails = [(t, i) for t, at in parts for i in at[~t.passed[at]].tolist()]
            worst = np.max(residual)  # NaN when any residual is NaN
            status = "PASS" if not fails else f"FAIL ({len(fails)}/{len(residual)})"
            lo, hi = tolerance.min(), tolerance.max()
            tol = f"{lo:.0e}" if lo == hi else f"{lo:.0e}..{hi:.0e}"
            line = f"  {fam:<14} {status:<12} n={len(residual):<4} worst={worst:.3e} tol={tol}"
            if include_timings and fam in self.timings:
                line += f"  [{self.timings[fam]:.2f}s]"
            lines.append(line)
            for r in (next(t.rows([i])) for t, i in fails[:5]):
                lines.append(f"      failed {r.bindings} residual={r.residual:.3e} {r.notes}")
        s = self.summary()
        lines.append(f"summary: {s['pass']} passed, {s['fail']} failed")
        return "\n".join(lines)


def random_curve(g: int, seed: int) -> CurveSpec:
    """2g+1 sorted uniform points on [-10, 10] with gaps >= 0.3, deterministic per seed."""
    if g < 2:
        raise ValueError("random curves start at genus 2")
    check_genus(g)
    rng = np.random.default_rng([g, seed])
    while True:
        pts = np.sort(rng.uniform(-10.0, 10.0, size=2 * g + 1))
        if np.min(np.diff(pts)) >= 0.3:
            return validate_curve(g, pts.tolist(), label=f"random-g{g}-seed{seed}")


class _Sampling(NamedTuple):
    """The fields of a run that a family's draw reads, and all that its
    sampler gets of :class:`SuiteConfig`: with the sampler, the family name
    and the genus, the key of :func:`_drawn`."""

    cap: int
    enable_heavy: bool
    seed: int


def _family_rng(cfg: SuiteConfig | _Sampling, family: str) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, zlib.crc32(family.encode())])


@lru_cache(maxsize=64)
def _drawn(bindings: Callable, name: str, g: int, sampling: _Sampling) -> np.ndarray:
    """``bindings(g, sampling, rng)`` on the family's own stream, read-only:
    the rows depend on nothing else, so every curve of a run shape shares
    one array, and the stream is seeded once per shape."""
    rows = bindings(g, sampling, _family_rng(sampling, name))
    rows.flags.writeable = False
    return rows


def _draw(count: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions of the sampled items of an enumeration of ``count``:
    all of them up to the cap, drawing no number, else ``cap`` drawn without
    replacement.  Taking every position leaves ``rng`` as it was, so a later
    draw from the same stream (D3's second cap, THOMAEG's m = 3) reads the
    numbers it would read had the enumeration been smaller."""
    if count <= cap:
        return np.arange(count)
    return np.sort(rng.choice(count, size=cap, replace=False))


def unrank_combinations(n: int, k: int, ranks: np.ndarray) -> np.ndarray:
    """The k-combinations of range(n) at the given lexicographic ranks (the
    order of itertools.combinations), one ascending row per rank."""
    out = np.empty((len(ranks), k), dtype=np.int64)
    # offsets[t, x]: the combinations whose element t is below x, counted from
    # 0, C(n, k - t) - C(n - x, k - t) by the hockey-stick identity; row k is 0
    combs = np.array([[math.comb(m, j) for m in range(n, -1, -1)] for j in range(k, -1, -1)],
                     dtype=np.int64)
    offsets = combs[:, :1] - combs
    # target: the rank still to place plus the offset of the smallest element
    # allowed next; placing element t at x moves it by step[t, x]
    step = offsets[1:, 1:] - offsets[:-1, :-1]
    target = np.array(ranks, dtype=np.int64)
    for t, (bounds, moves) in enumerate(zip(offsets[:, 1:], step)):
        x = bounds.searchsorted(target, side="right")  # as offsets[t, 0] = 0 <= target
        out[:, t] = x
        target += moves[x]
    return out


def _subsets(members: np.ndarray, k: int, ranks: np.ndarray) -> np.ndarray:
    """The k-subset at each rank of ``members``, one ascending index row or
    one such row per rank, as an ascending index row per rank, ranked in
    ``itertools.combinations`` order of the members: an enumeration unranks
    a set inside the rows of the set it was drawn from."""
    at = unrank_combinations(members.shape[-1], k, ranks)
    return members[at] if members.ndim == 1 else np.take_along_axis(members, at, axis=1)


def _picker(rng: np.random.Generator, *caps: int) -> Callable:
    """pick(count) -> sorted positions in an enumeration of ``count``: a
    :func:`_draw` with the first cap, then one from the kept positions with
    each further cap (D3's sample of a sample).  It takes every position,
    and draws no number, when count is at most every cap."""

    def pick(count: int) -> np.ndarray:
        idx = _draw(count, caps[0], rng)
        for cap in caps[1:]:
            idx = idx[_draw(len(idx), cap, rng)]
        return idx

    return pick


# ---------------------------------------------------------------------------
# Family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One verification family as a table entry.

    ``bindings(g, cfg, rng)`` gives the bindings as an int array with one
    binding per row, every index set as one mask column, so the width of a
    family's rows does not depend on g (RANK's grows with g up to six parts).
    A run passes a :class:`_Sampling` as ``cfg``, so a sampler reads the
    genus, ``cfg.cap``, ``cfg.enable_heavy`` and the numbers of ``rng``, its
    family's stream, and no curve: every binding is drawn before the engine
    exists, once per run shape, into read-only rows (:func:`_drawn`).
    ``verify(ctx, bindings, tol)`` gives the records of all of them, in row
    order, ``tol`` the run's :attr:`SuiteConfig.tolerance_table`.  The entry's
    call ``family(ctx, cfg, rows)`` runs it on the rows a run drew; a run
    makes no call for a family that drew none.
    ``order`` is the highest derivative order of theta it reads, or
    ``order(g, enable_heavy)`` where that depends on the run; see
    :func:`run_order`.  Below ``min_genus`` the family has no instances.
    """

    name: str
    bindings: Callable
    verify: Callable
    order: int | Callable[[int, bool], int]
    min_genus: int = 2

    def __call__(self, ctx: CurveContext, cfg: SuiteConfig, rows: np.ndarray) -> RecordTable:
        return self.verify(ctx, rows, cfg.tolerance_table)


def run_order(families, g: int, enable_heavy: bool) -> int:
    """The highest derivative order the families read at genus g, at least
    0: a run enumerates the lattice at its truncation radius, and builds it
    at order 0 when no family reads theta.  A family below its
    ``min_genus`` reads nothing.
    Only the entries' fields are read, so an entry replaced by a
    ``functools.wraps`` wrapper still counts."""
    orders = [f.order(g, enable_heavy) if callable(f.order) else f.order
              for f in families if g >= f.min_genus]
    return max(orders, default=0)


def _finite(g: int) -> np.ndarray:
    """The finite indices 1..2g+1 as one ascending index row."""
    return np.arange(1, 2 * g + 2)


def _i0_splits(g: int, ksize: int, pick: Callable) -> np.ndarray:
    """Rows [I_0 K j_m j_n] at the positions ``pick(count)`` of the
    enumeration over every finite g-set I_0, every ksize-subset K of I_0,
    and the two smallest indices j_m < j_n of J_0: I_0 unranked in the
    finite indices, K in I_0's rows, and j_m, j_n the low indices of J_0."""
    per = math.comb(g, ksize)
    idx = pick(math.comb(2 * g + 1, g) * per)
    i0_rows = _subsets(_finite(g), g, idx // per)
    i0 = index_masks(i0_rows)
    ks = index_masks(_subsets(i0_rows, ksize, idx % per))
    return np.column_stack([i0, ks, low_indices(finite_mask(g) ^ i0, 2)])


def _kappa_splits(g: int, isize: int, nk: int, pick: Callable) -> np.ndarray:
    """Rows [I B j_m j_n] at the positions ``pick(count)`` of the
    enumeration over all indices 0..2g+1: I a finite isize-set, B nk further
    indices, j_m < j_n the two smallest finite ones left.  I is unranked in
    the finite indices, B in every index outside I."""
    nrest = 2 * g + 2 - isize
    per = math.comb(nrest, nk)
    idx = pick(math.comb(2 * g + 1, isize) * per)
    fin = finite_mask(g)
    i_set = index_masks(_subsets(_finite(g), isize, idx // per))
    kappas = index_masks(_subsets(low_indices((fin | 1) ^ i_set, nrest), nk, idx % per))
    return np.column_stack([i_set, kappas, low_indices(fin & ~(i_set | kappas), 2)])


def _eklm_splits(g: int, pick: Callable) -> np.ndarray:
    """Rows [I J k m n] at the positions ``pick(count)`` of the EKLM
    enumeration: every finite triple k < m < n, every (g-1)-set I of the
    other finite indices (unranked in their mask), J the rest; position 2p
    is pair p as (k, m, n), 2p + 1 as (m, n, k)."""
    n = 2 * g + 1
    per = math.comb(n - 3, g - 1)
    idx = pick(2 * math.comb(n, 3) * per)
    kmn = _subsets(_finite(g), 3, idx // 2 // per)
    others = finite_mask(g) ^ index_masks(kmn)
    i_set = index_masks(_subsets(low_indices(others, n - 3), g - 1, idx // 2 % per))
    kmn = np.where((idx % 2 == 0)[:, None], kmn, kmn[:, [1, 2, 0]])
    return np.column_stack([i_set, others ^ i_set, kmn])


def _partition_masks(g: int, m: int, pick: Callable) -> np.ndarray:
    """Masks of the finite parts of the multiplicity-m partitions at the
    positions ``pick(count)`` of their canonical list (by part size as
    :func:`part_sizes` lists them, then in ``combinations`` order of the
    part), unranked block by block of part size."""
    n = 2 * g + 1
    counts = {size: math.comb(n, size) for size in part_sizes(g, m)}
    idx = pick(sum(counts.values()))
    out = np.empty(len(idx), dtype=np.int64)
    start = 0
    for size, count in counts.items():
        at = (idx >= start) & (idx < start + count)
        out[at] = index_masks(_subsets(_finite(g), size, idx[at] - start))
        start += count
    return out


def _part_masks(g: int, m: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Rows [part mask] of the sampled finite parts of the multiplicity-m
    partitions."""
    return _partition_masks(g, m, _picker(rng, cap)).reshape(-1, 1)


def _thomae1(ctx, rows, tol=DEFAULT_TOLERANCES):
    """THOMAE1 for every row [I0] of rows: theta[I0] over the first Thomae
    right side must be +1."""
    return make_records("THOMAE1", np.abs(calibrate_phases(ctx, rows[:, 0]) - 1.0), tol["THOMAE1"],
                        masks=("I0",), I0=rows[:, 0])


def _thomae_fit(ctx, parts: np.ndarray, m: int) -> tuple[np.ndarray, ...]:
    """The order-m tensor lhs of theta[A] against the general Thomae formula
    with K the first g - |A| finite indices outside A, for every part mask A
    of multiplicity m (one |A| for all).  Per row: max |lhs - rhs| / max |lhs|,
    the flat position of the largest |lhs|, both right sides, and the masks
    of K and of the last g - |A| such indices."""
    free = index_rows(finite_mask(ctx.g) ^ parts)
    size = ctx.g + free.shape[1] - ctx.spec.n_finite
    k = index_masks(free[:, :size])
    pred, ratio = general_thomae_batch(ctx, parts, k)
    lhs = ctx.derivs(parts, m).reshape(len(parts), -1)
    flat = np.argmax(np.abs(lhs), axis=1)
    largest = np.abs(lhs[np.arange(len(lhs)), flat])
    residual = np.max(np.abs(lhs - pred.reshape(len(parts), -1)), axis=1) / largest
    return residual, flat, pred, ratio, k, index_masks(free[:, -size:])


def _thomae2(ctx, rows, tol=DEFAULT_TOLERANCES):
    """THOMAE2 for every row [I1] of rows, the finite part of a
    multiplicity-1 partition as a mask: its gradient is the general formula
    at m = 1, phase included."""
    parts = rows[:, 0]
    residual = np.empty(len(parts))
    for _, at in rel._groups(np.bitwise_count(parts)):
        residual[at] = _thomae_fit(ctx, parts[at], 1)[0]
    return make_records("THOMAE2", residual, tol["THOMAE2"], masks=("I1",), I1=parts)


def _thomaeg_orders(g: int) -> tuple[int, ...]:
    """The multiplicities m (derivative orders) THOMAEG checks at genus g."""
    return (2, 3) if g >= 5 else (2,)


def _thomaeg_bindings(g, cfg, rng):
    # rows [Im], Im the finite part of a multiplicity-m partition as a mask
    return np.vstack([_part_masks(g, m, max(cfg.cap // 20, 5), rng) for m in _thomaeg_orders(g)])


def _thomaeg(ctx, rows, tol=DEFAULT_TOLERANCES):
    """THOMAEG for every row [Im] of rows, Im the finite part of a
    multiplicity-m partition, m = (g - |Im| + 1) // 2: the order-m
    derivative tensor of theta[Im] is the general formula with K the first
    g - |Im| finite indices outside Im, phase included.  At the largest
    entry, K made of the last such indices must give the same value
    (K-independence), and the ratio form must be the direct form over the
    first Thomae right side of Im + K; either failing fails the record."""
    parts = rows[:, 0]
    order = completed_part(ctx.g, parts)[1]
    k_sets = np.empty(len(rows), dtype=np.int64)
    residual, k_indep, ratio_resid = (np.empty(len(rows)) for _ in range(3))
    for _, at in rel._groups(np.bitwise_count(parts)):
        residual[at], flat, pred, ratio, k, k_alt = _thomae_fit(ctx, parts[at], int(order[at[0]]))

        def entry(t):
            return t.reshape(len(at), -1)[np.arange(len(at)), flat]

        v1, r1 = entry(pred), entry(ratio)
        scale = np.abs(pred).reshape(len(at), -1).max(axis=1)
        k_indep[at] = np.abs(v1 - entry(general_thomae_batch(ctx, parts[at], k_alt)[0])) / scale
        r2 = v1 / thomae_prefactor(ctx, parts[at] | k)
        ratio_resid[at] = rel._match_residuals(r1, r2)
        k_sets[at] = k
    # m = 3 runs from genus 5 on
    tols = [tol["THOMAEG_G5" if m == 3 else "THOMAEG"] for m in order.tolist()]
    notes = [f"K-indep {ki:.2e}; ratio-form {rr:.2e}"
             for ki, rr in zip(k_indep.tolist(), ratio_resid.tolist())]
    return make_records("THOMAEG", residual, tols, notes=notes,
                        precondition_failed=(k_indep > 1e-8) | (ratio_resid > 1e-10),
                        masks=("Im", "K"), Im=parts, m=order, K=k_sets)


def _eklm_bindings(g, cfg, rng):
    return _eklm_splits(g, _picker(rng, min(cfg.cap, 200)))


def _eji_bindings(g, cfg, rng):
    # [I0 K j_n j_m] with K = {i_k, i_l} the two smallest of I_0 and
    # j_n < j_m the two smallest of J_0
    rows = _i0_splits(g, 0, _picker(rng, min(cfg.cap, 100)))
    return np.column_stack([rows[:, 0], index_masks(low_indices(rows[:, 0], 2)), rows[:, 2:]])


def _grad4_bindings(g, cfg, rng):
    # [I B j_m j_n S1..S4], the pairs S canonical or, on a small subsample,
    # regrouped
    rows = _kappa_splits(g, g - 3, 5, _picker(rng, cfg.cap // 2))
    kappas = low_indices(rows[:, 1], 5)
    sub = max(len(rows) // 10, 1)
    return np.vstack([
        np.hstack([rows, index_masks(kappas[:, np.array(rel.GRAD4_PAIRS)])]),
        np.hstack([rows[:sub], index_masks(kappas[:sub, np.array(rel.GRAD4_REGROUPED)])]),
    ])


def _sorted_rows(draws: list, width: int) -> np.ndarray:
    """The per-row draws of a sampler, sorted, one row each."""
    return np.sort(np.array(draws, dtype=np.int64).reshape(-1, width), axis=1)


def _gradn_bindings(g, cfg, rng):
    """Rows [I B j_m j_n], I and B as masks: for r = 2..min(4, g), three
    draws of g - r + 2r - 1 distinct indices 0..2g+1, sorted, I the first
    g - r of them and B the rest."""
    blocks = []
    for r in range(2, min(4, g) + 1):
        size = (g - r) + (2 * r - 1)
        chosen = _sorted_rows([rng.choice(2 * g + 2, size=size, replace=False)
                              for _ in range(3)], size)
        i_set, b_set = index_masks(chosen[:, :g - r]), index_masks(chosen[:, g - r:])
        free = low_indices(finite_mask(g) & ~(i_set | b_set), 2)
        blocks.append(np.column_stack([i_set, b_set, free]))
    return np.vstack(blocks)


def _rank_bindings(g, cfg, rng):
    """Rows [degenerate | part masks], padded with -1: collections of 2 to
    min(g + 2, 6) multiplicity-1 parts, each a size and that many distinct
    positions drawn in the canonical list of :func:`_partition_masks`, which
    unranks only the positions drawn; then, from genus 4, the degenerate
    family of the rank theorem, three sets sharing a (g-2)-set plus one
    disjoint-ish set (intersection g-4 but rank 3)."""
    width = min(g + 2, 6)
    sizes = []

    def pick(count):  # every row's draw, one collection after another
        picks = []
        for _ in range(min(cfg.cap, 200)):
            sizes.append(int(rng.integers(2, width + 1)))
            picks.append(rng.choice(count, size=sizes[-1], replace=False))
        return np.concatenate(picks)

    masks = _partition_masks(g, 1, pick)
    rows = np.full((len(sizes) + (g >= 4), width + 1), -1, dtype=np.int64)
    rows[:, 0] = 0
    rows[:len(sizes), 1:][np.arange(width) < np.array(sizes)[:, None]] = masks
    if g >= 4:
        shared = (1 << g - 1) - 2  # {1..g-2}; the last set is {g+3..2g+1}
        fam = [shared | 1 << g - 1 + i for i in range(3)] + [(1 << 2 * g + 2) - (1 << g + 3)]
        rows[-1, :len(fam) + 1] = [1, *fam]
    return rows


def _hess_equiv_bindings(g, cfg, rng):
    """Rows [I0_a K_a j_m j_n  I0_b K_b j_m j_n], the index sets as masks:
    per row g + 1 distinct finite indices, sorted, I their first g - |K|
    and P the rest; K_a is P without its last index, K_b P without its
    |K|-th, and I0 = I + K.  |K| = 3 rows, then |K| = 4 rows, whose
    equivalence needs five spare indices."""
    blocks = [np.empty((0, 8), dtype=np.int64)]
    for ksize, count in ((3, min(cfg.cap // 25, 20)), (4, min(cfg.cap // 50, 10))):
        if ksize > g:
            break
        chosen = _sorted_rows([rng.choice(2 * g + 1, size=g + 1, replace=False)
                              for _ in range(count)], g + 1) + 1
        i_set, ps = index_masks(chosen[:, :g - ksize]), chosen[:, g - ksize:]
        ka, kb = index_masks(ps[:, :ksize]), index_masks(np.delete(ps, ksize - 1, axis=1))
        jc = low_indices(finite_mask(g) ^ (i_set | ka | kb), 2)
        blocks.append(np.column_stack([i_set | ka, ka, jc, i_set | kb, kb, jc]))
    return np.vstack(blocks)


def _d3_k5_bindings(g, cfg, rng):
    return _i0_splits(g, 5, _picker(rng, 2 * cfg.cap, max(cfg.cap // 20, 20)))


def _d3_k6_bindings(g, cfg, rng):
    return _i0_splits(g, 6, _picker(rng, 2 * cfg.cap, 3))


def _conj_m_sizes(g: int, enable_heavy: bool) -> list[int]:
    """The |K| CONJ_M checks at genus g, at order m = (|K|+1)//2; m = 4 only
    when heavy."""
    return [ksize for ksize in (3, 4, 5) + ((7,) if enable_heavy else ()) if ksize <= g]


def _conj_m_bindings(g, cfg, rng):
    # rows [I0 K j_m j_n], I0 = {1..g}, K its |K| smallest indices;
    # specialisations: the general construction must match the dedicated ones
    return np.array([[index_mask(range(1, g + 1)), index_mask(range(1, ksize + 1)), g + 1, g + 2]
                     for ksize in _conj_m_sizes(g, cfg.enable_heavy)],
                    dtype=np.int64).reshape(-1, 4)


def _rj_det_bindings(g, cfg, rng):
    # rows [I_0]
    return _i0_splits(g, 0, _picker(rng, min(cfg.cap // 10, 20)))[:, :1]


def _schottky_r_bindings(g, cfg, rng):
    """Rows [I0 K j_m j_n], K four indices of I0: per row a finite g-set
    I0, then four distinct positions in its sorted row, the numbers
    ``rng.choice(i0, 4)`` reads."""
    draws, fours = [], []
    for _ in range(min(cfg.cap // 25, 20)):
        draws.append(rng.choice(2 * g + 1, size=g, replace=False))
        fours.append(rng.choice(g, size=4, replace=False))
    i0_rows = _sorted_rows(draws, g) + 1
    i0 = index_masks(i0_rows)
    at = np.array(fours, dtype=np.int64).reshape(-1, 4)
    ks = index_masks(np.take_along_axis(i0_rows, at, axis=1))
    return np.column_stack([i0, ks, low_indices(finite_mask(g) ^ i0, 2)])


def _schottky_f_bindings(g, cfg, rng):
    # rows [position in CASE_IDS] of the cases stated at this genus
    return np.array([[i] for i, c in enumerate(sch.CASE_IDS) if sch.CASE_GENUS[c] == g],
                    dtype=np.int64).reshape(-1, 1)


# In run order, as (name, bindings, verify, order[, min_genus]);
# an order that varies with the run comes from the rule the bindings use.
# Each family samples from its own stream, seeded by crc32(name):
# reordering a family's draws changes its sampled bindings.
FAMILIES = {f.name: f for f in (
    Family("THOMAE1", lambda g, cfg, rng: _i0_splits(g, 0, _picker(rng, cfg.cap))[:, :1],
           _thomae1, 0),
    Family("THOMAE2", lambda g, cfg, rng: _part_masks(g, 1, cfg.cap, rng), _thomae2, 1),
    Family("THOMAEG", _thomaeg_bindings, _thomaeg, lambda g, heavy: max(_thomaeg_orders(g)), 3),
    Family("EKLM", _eklm_bindings, rel.eklm_batch, 0),
    Family("EJI", _eji_bindings, rel.eji_batch, 0),
    Family("GRAD2", lambda g, cfg, rng: _i0_splits(g, 2, _picker(rng, cfg.cap)),
           rel.grad2_batch, 1),
    Family("GRAD3", lambda g, cfg, rng: _kappa_splits(g, g - 2, 3, _picker(rng, cfg.cap)),
           rel.grad3_batch, 1),
    Family("GRAD4", _grad4_bindings, rel.grad4_batch, 1, 3),
    Family("GRADN", _gradn_bindings, rel.gradn_batch, 1),
    Family("RANK", _rank_bindings, rel.rank_batch, 1),
    Family("HESS_K3", lambda g, cfg, rng: _i0_splits(g, 3, _picker(rng, cfg.cap // 2)),
           rel.derivative_batch, 2, 3),
    Family("HESS_K4", lambda g, cfg, rng: _i0_splits(g, 4, _picker(rng, cfg.cap // 2)),
           rel.derivative_batch, 2, 4),
    Family("HESS_EQUIV", _hess_equiv_bindings, rel.hessian_equiv_batch, 2, 3),
    Family("HESS_RANK", lambda g, cfg, rng: _part_masks(g, 2, cfg.cap if g <= 4 else 10, rng),
           rel.hessian_rank_batch, 2, 3),
    Family("D3_K5", _d3_k5_bindings, rel.derivative_batch, 3, 5),
    Family("D3_K6", _d3_k6_bindings, rel.derivative_batch, 3, 6),
    Family("CONJ_M", _conj_m_bindings, rel.conjecture_batch,
           lambda g, heavy: max(((k + 1) // 2 for k in _conj_m_sizes(g, heavy)), default=0), 3),
    Family("RJ_DET", _rj_det_bindings, rel.rj_det_batch, 1),
    Family("SCHOTTKY_R", _schottky_r_bindings, sch.schottky_r_batch, 0, 4),
    Family("SCHOTTKY_F", _schottky_f_bindings, sch.appendix_f_batch, 0),
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
    running = [f for f in FAMILIES.values() if wanted is None or f.name in wanted]

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    g = cfg.spec.genus
    sampling = _Sampling(cfg.cap, cfg.enable_heavy, cfg.seed)
    drawn = [_drawn(f.bindings, f.name, g, sampling) if g >= f.min_genus else []
             for f in running]
    timings["bindings"] = time.perf_counter() - t0
    if running and not any(map(len, drawn)):
        below = [f"{f.name} (genus {f.min_genus})" for f in running if g < f.min_genus]
        empty = [f.name for f in running if g >= f.min_genus]
        reasons = ([f"below their smallest genus: {', '.join(below)}"] if below else []) + \
            ([f"0 rows at cap {cfg.cap}: {', '.join(empty)}"] if empty else [])
        raise ValueError(f"no family drew a binding at genus {g}: {'; '.join(reasons)}")

    t0 = time.perf_counter()
    periods = compute_periods(cfg.spec, cfg.quad_order)
    timings["periods"] = time.perf_counter() - t0

    # the engine enumerates its lattice as it is built
    t0 = time.perf_counter()
    order = run_order([f for f, rows in zip(running, drawn) if len(rows)], g, cfg.enable_heavy)
    ctx = CurveContext.build(cfg.spec, periods=periods, theta_tol=cfg.theta_tol, order=order)
    timings["lattice"] = time.perf_counter() - t0

    tables: list[RecordTable] = []
    for family, rows in zip(running, drawn):
        t0 = time.perf_counter()
        if len(rows):
            tables.append(family(ctx, cfg, rows))  # the entry: bench/layers.py wraps it
        timings[family.name] = time.perf_counter() - t0

    return Report(
        curve={
            "label": cfg.spec.label,
            "genus": cfg.spec.genus,
            "branch_points": list(cfg.spec.branch_points),
            "hash": cfg.spec.content_hash(),
        },
        periods={"quad_order": periods.quad_order, "est_error": periods.est_error},
        theta={"order": order, "points": ctx.engine.points, "radius": round(ctx.engine.radius, 6)},
        tables=tables,
        timings={k: round(v, 6) for k, v in timings.items()},
        config={
            # None runs every family; an empty filter runs none and echoes []
            "relations": None if cfg.relations is None else sorted(cfg.relations),
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

def _parse_tolerances(parser: argparse.ArgumentParser, values: list[str]) -> dict:
    out = {}
    for item in values:
        for piece in item.split(","):
            if not piece.strip():
                continue
            name, sep, val = piece.partition("=")
            name = name.strip().upper()
            try:
                if not sep:
                    raise ValueError("expected NAME=VAL")
                out[name] = float(val)
                _check_tolerance(name, out[name])
            except ValueError as exc:
                parser.error(f"argument --tol-family: {piece!r}: {exc}")
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
    v.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the report "
                   "(reports are byte-identical only without them)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    if args.cap < 1:
        parser.error(f"argument --cap: must be at least 1, got {args.cap}")
    if args.quad_order < 1:
        parser.error(f"argument --quad-order: must be at least 1, got {args.quad_order}")
    if not (math.isfinite(args.theta_tol) and args.theta_tol > 0):
        parser.error(f"argument --theta-tol: must be finite and > 0, got {args.theta_tol}")
    tolerances = _parse_tolerances(parser, args.tol_family)
    relations = None
    if args.relations is not None:
        relations = tuple(p for p in (s.strip().upper() for s in args.relations.split(",")) if p)
        if not relations:
            parser.error(f"argument --relations: {args.relations!r} names no family")
    if args.out:
        # refused before the run, which may take seconds for a report that cannot be
        # kept, and without opening (so truncating) the file: a directory, a missing
        # directory, or no write access; the write below still handles any OSError
        where, code = os.path.dirname(args.out) or ".", 0
        if os.path.isdir(args.out):
            code = errno.EISDIR
        elif not os.path.isdir(where):
            code = errno.ENOENT
        elif not os.access(args.out if os.path.exists(args.out) else where, os.W_OK):
            code = errno.EACCES
        if code:
            error = OSError(code, os.strerror(code), args.out)
            print(f"error: cannot write report to {args.out}: {error}", file=sys.stderr)
            return 2
    try:
        if args.curve:
            spec = load_curve_file(args.curve)
        else:
            spec = random_curve(args.genus, args.seed)
        cfg = SuiteConfig(
            spec=spec,
            relations=relations,
            tolerances=tolerances,
            quad_order=args.quad_order,
            theta_tol=args.theta_tol,
            cap=args.cap,
            seed=args.seed,
            enable_heavy=args.enable_heavy,
        )
        report = run_suite(cfg)
    except Exception as exc:  # infrastructure failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        slabs = report.json_slabs(args.timings)  # never the whole text at once
    else:
        slabs = [report.to_text(args.timings)]
    if args.out:
        try:
            with open(args.out, "w") as out:
                out.writelines(slabs)
                out.write("\n")
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.writelines(slabs)
        sys.stdout.write("\n")
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
