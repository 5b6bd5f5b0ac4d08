"""One benchmark pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --src SRC --workload NAME --seed N [--trace] [--spans PATH]
    python3 bench/worker.py --src SRC --setup-only

Prints one JSON object on its last stdout line.  ``setup_s`` is the time of
``import thomae_lab`` in this interpreter; ``wall_s`` is the sum of the
per-curve ``run_suite`` latencies, so interpreter start, import and input
generation are excluded.  Both are in reference seconds (see ``speed.py``);
the ``raw_`` fields hold the seconds as measured.  A ``run_suite``
exception is the CLI's exit-2 path and counts as one failed curve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

SETUP_PROBES = 25  # probe samples taken on each side of the import


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True, help="directory that must hold thomae_lab")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the span arrays to this .npz path")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    probe = SpeedProbe()
    probe.burst(SETUP_PROBES)
    t0 = perf_counter()
    import thomae_lab
    raw_setup_s = perf_counter() - t0
    probe.burst(SETUP_PROBES)
    setup_s = raw_setup_s * probe.scale()
    src = Path(args.src).resolve()
    if src not in Path(thomae_lab.__file__).resolve().parents:
        print(f"thomae_lab imported from {thomae_lab.__file__}, not from {src}", file=sys.stderr)
        return 1
    if args.setup_only:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s,
                          "numpy": numpy.__version__,
                          "blas": f"{blas['name']} {blas.get('version', '')}"}))
        return 0

    import layers
    import workloads
    from thomae_lab import run_suite

    cfgs = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)

    intervals, latencies, errors = [], [], 0
    digest = hashlib.sha256()
    bindings: list[tuple[str, str]] = []
    families, failed_by_family = Counter(), Counter()
    family_s: Counter = Counter()
    probe = SpeedProbe()
    with probe.periodic():
        for i, cfg in enumerate(cfgs):
            spent, t = probe.spent, perf_counter()
            try:
                if tracer is not None:
                    tracer.curve = i
                    report = tracer.call("harness", run_suite, (cfg,), {})
                else:
                    report = run_suite(cfg)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                report = None
            end = perf_counter()
            intervals.append((t, end))
            latencies.append(end - t - (probe.spent - spent))
            if report is None:
                errors += 1
                digest.update(f"curve {i}: infrastructure failure\n".encode())
                continue
            digest.update(report.to_json(include_timings=False).encode())
            for r in report.records:
                d = r.as_dict()
                bindings.append((d["relation_id"], json.dumps(d["bindings"], sort_keys=True)))
                families[d["relation_id"]] += 1
                failed_by_family[d["relation_id"]] += int(not d["pass"])
            family_s.update(report.timings)
    scale = probe.scale()
    scaled = [lat * probe.scale(t0, t1) for lat, (t0, t1) in zip(latencies, intervals)]

    out = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": sum(scaled),
        "raw_wall_s": sum(latencies),
        "speed_scale": scale,
        "latencies_s": scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "curves": len(cfgs),
        "errors": errors,
        "records": sum(families.values()),
        "failed": sum(failed_by_family.values()),
        "families": dict(sorted(families.items())),
        "failed_by_family": dict(sorted(failed_by_family.items())),
        "family_s": {family: scale * t for family, t in family_s.items()},
        "digest": digest.hexdigest(),
        "bindings_digest": hashlib.sha256(json.dumps(sorted(bindings)).encode()).hexdigest(),
    }
    if tracer is not None:
        self_s, calls = tracer.layer_times()
        self_s = {layer: scale * x for layer, x in self_s.items()}
        orders = Counter(str(order) for _, order, _, _ in tracer.per_curve)
        out["trace"] = {
            "self_s": self_s,
            "calls": calls,
            "counters": dict(sorted(tracer.counters.items())),
            "quad_orders": dict(sorted(orders.items(), key=lambda kv: int(kv[0]))),
            "radius": statistics.median(tracer.radii) if tracer.radii else None,
            "radius_ratio_o0_o4": tracer.radius_ratio(),
            "spans": tracer.n_spans,
            "present": sorted(tracer.present),
            "missing": tracer.missing,
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
