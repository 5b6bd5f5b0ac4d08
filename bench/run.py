"""thomae-lab benchmark: one workload, fresh interpreters, gated outputs.

    python3 bench/run.py --workload suite-g5 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` only.  Every pass is a fresh interpreter running
``bench/worker.py``, one at a time, with BLAS pinned to one thread.
Untraced passes repeat until the next one would end after ``--seconds``,
at least three.  ``--trace 1`` runs three passes instead, traced, untraced,
traced, so that the tracing overhead (mean traced minus untraced wall time)
is not skewed by a machine whose speed drifts during the run.  The last
stdout line is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Times are in reference seconds: each pass scales what it measured
by the machine's speed at the time (``speed.py``); the table also prints
the times as measured.  ``correct`` requires every gate to hold: report
digests identical across passes, record count, per-family counts and
(where the reference has the seed) the (family, bindings) set equal to
``reference.json``, no failed record, no infrastructure failure, and in
traced runs identical deterministic counters across traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

MIN_PASSES = 3
SETUP_ONLY_RUNS = 5
BUDGET_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"wall_s": "s", "curve_p50_ms": "ms", "curve_p95_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError(f"time budget of {BUDGET_S:.0f} s exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args: list[str], minimum: int, seconds: float, started: float,
               deadline: float) -> list[dict]:
    """Passes until the next would end after ``seconds``, at least ``minimum``."""
    passes, last = [], 0.0
    while len(passes) < minimum or perf_counter() - started + last <= seconds:
        t = perf_counter()
        passes.append(run_worker(args, deadline))
        last = perf_counter() - t
    return passes


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())[workload]


def gates(workload: str, seed: int, passes: list[dict]) -> list[tuple[str, bool]]:
    ref = load_reference(workload)
    first = passes[0]
    out = [
        (f"report digest identical across {len(passes)} passes",
         len({p["digest"] for p in passes}) == 1),
        (f"record count {first['records']} = reference {ref['records']}",
         all(p["records"] == ref["records"] for p in passes)),
        ("records per family = reference",
         all(p["families"] == ref["families"] for p in passes)),
        ("no infrastructure failure", all(p["errors"] == 0 for p in passes)),
        ("no failed record", all(p["failed"] == 0 for p in passes)),
    ]
    expected = ref["bindings"].get(str(seed), ref["bindings"].get("*"))
    if expected is None:
        out.append((f"(family, bindings) set identical across passes "
                    f"(seed {seed} not in reference)",
                    len({p["bindings_digest"] for p in passes}) == 1))
    else:
        out.append(("(family, bindings) set = reference",
                    all(p["bindings_digest"] == expected for p in passes)))
    return out


def deterministic(trace: dict) -> dict:
    return {k: trace[k] for k in ("counters", "quad_orders", "radius", "radius_ratio_o0_o4")}


def e2e_metrics(passes: list[dict], setup: list[float]) -> dict:
    latencies = [x for p in passes for x in p["latencies_s"]]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "curve_p50_ms": 1e3 * percentile(latencies, 50),
        "curve_p95_ms": 1e3 * percentile(latencies, 95),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


# Count metrics: name -> (layer that must be present, counter; None = calls).
COUNTS = {
    "periods.calls": ("periods", None),
    "periods.doublings": ("periods", "periods.doublings"),
    "periods.unconverged": ("periods", "periods.unconverged"),
    "theta.lattice.classes": ("theta.lattice", "theta.lattice.classes"),
    "theta.const.calls": ("theta.const", "theta.const.calls"),
    "theta.deriv.calls.o1": ("theta.deriv", "theta.deriv.calls.o1"),
    "theta.deriv.calls.o2": ("theta.deriv", "theta.deriv.calls.o2"),
    "theta.deriv.calls.o3": ("theta.deriv", "theta.deriv.calls.o3"),
    "characteristics.calls": ("characteristics", None),
    "thomae.rhs.calls": ("thomae.rhs", None),
    "context.const.lookups": ("context", "context.const.lookups"),
    "context.const.hits": ("context", "context.const.hits"),
    "context.deriv.lookups": ("context", "context.deriv.lookups"),
    "context.deriv.hits": ("context", "context.deriv.hits"),
}


def layer_metrics(untraced: dict, traced: list[dict]) -> dict:
    """Mean self times of the traced passes, and the first traced pass's
    counts (a gate checks that they repeat).  Metrics of a layer whose
    entry points are all gone are left out."""
    t = traced[0]["trace"]
    m = {f"{layer}.self_s": (statistics.mean(p["trace"]["self_s"][layer] for p in traced), "s")
         for layer in t["self_s"]}
    for name, (layer, counter) in COUNTS.items():
        if layer in t["present"]:
            m[name] = (t["calls"][layer] if counter is None else t["counters"].get(counter, 0),
                       "count")
    if "relations" in t["present"]:
        m["relations.records"] = (traced[0]["records"], "count")
        m["relations.records_failed"] = (traced[0]["failed"], "count")
    if t["radius"] is not None:
        m["theta.lattice.radius"] = (t["radius"], "1")
        m["theta.lattice.radius_ratio_o0_o4"] = (t["radius_ratio_o0_o4"], "1")
    traced_wall = statistics.mean(p["wall_s"] for p in traced)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced["wall_s"], "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def environment(setup_run: dict) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return (f"nproc {os.cpu_count()}, cpu {cpu}, python {platform.python_version()}, "
            f"numpy {setup_run['numpy']} ({setup_run['blas']}), "
            + ", ".join(f"{v}=1" for v in THREAD_VARS))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SystemExit inside subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    started = perf_counter()
    deadline = started + BUDGET_S

    if not (SRC / "thomae_lab" / "__init__.py").is_file():
        print(f"error: no thomae_lab package under {SRC}", file=sys.stderr)
        return 1
    try:
        load_reference(args.workload)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: no reference for workload {args.workload!r}: {exc}", file=sys.stderr)
        return 1

    pass_args = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_runs = [run_worker(["--setup-only"], deadline) for _ in range(SETUP_ONLY_RUNS)]
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
            traced = [run_worker(pass_args + ["--trace", "--spans", str(spans)], deadline)]
            untraced = run_worker(pass_args, deadline)
            traced.append(run_worker(pass_args + ["--trace"], deadline))
            passes = [traced[0], untraced, traced[1]]
        else:
            passes = run_passes(pass_args, MIN_PASSES, args.seconds, started, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup = [p["setup_s"] for p in setup_runs + passes]

    checks = gates(args.workload, args.seed, passes)
    if args.trace:
        checks.append((f"deterministic counters identical across {len(traced)} traced passes",
                       all(deterministic(p["trace"]) == deterministic(traced[0]["trace"])
                           for p in traced)))
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = e2e_metrics(passes, setup)
    attempted = sum(p["records"] + p["errors"] for p in passes)
    failed = sum(p["failed"] + p["errors"] for p in passes)
    correct = all(ok for _, ok in checks)

    report_text(args, passes, setup, [p["raw_setup_s"] for p in setup_runs + passes],
                metrics, checks, attempted, failed, environment(setup_runs[0]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report_text(args, passes, setup, setup_raw, metrics, checks, attempted, failed,
                env) -> None:
    n_lat = sum(len(p["latencies_s"]) for p in passes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {passes[0]['curves']} curve(s), "
          f"{len(setup)} import timings, {n_lat} curve latencies")
    print(f"environment: {env}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_share':<36} {failed / max(attempted, 1):>14.6g} "
          f"({failed} failed of {attempted} attempted)")
    untraced = [p for p in passes if "trace" not in p]
    print(f"  as measured, before speed scaling: untraced wall_s median "
          f"{statistics.median(p['raw_wall_s'] for p in untraced):.6g} s, setup_s median "
          f"{statistics.median(setup_raw):.6g} s; speed scale per pass "
          + ", ".join(f"{p['speed_scale']:.4f}" for p in passes))
    if args.trace:
        t = passes[0]["trace"]
        total = sum(t["self_s"].values())
        print(f"layer shares of the traced wall time ({total:.3f} s, first traced pass):")
        for layer, s in t["self_s"].items():
            print(f"  {layer:<22} {s / total:7.1%}")
        c = t["counters"]
        for kind in ("const", "deriv"):
            n = c.get(f"context.{kind}.lookups", 0)
            ratio = f"{c[f'context.{kind}.hits'] / n:.3f}" if n else "absent"
            print(f"  context.{kind}.hit_ratio {ratio} (base {n} lookups)")
        print(f"  periods quad orders {t['quad_orders']}")
        for fam, s in passes[0]["family_s"].items():
            print(f"  harness.family.{fam}_s {s:.6f}")
        print("  records (failed) per family: " + ", ".join(
            f"{fam} {n} ({passes[0]['failed_by_family'][fam]})"
            for fam, n in passes[0]["families"].items()))
        print(f"  spans {t['spans']}, missing targets {t['missing'] or 'none'}")
    for text, ok in checks:
        print(f"  gate {'ok  ' if ok else 'FAIL'} {text}")
    print(f"  report digest {passes[0]['digest']}")


if __name__ == "__main__":
    sys.exit(main())
