"""The benchmark's layer map (bench/layers.py) patches program entry points
by name and silently reports a layer absent once all of its names are gone.
This guards those names: every layer must find a live target, the entry
points the layers rely on must exist, the engine's truncation radius must
reach the tracer, and a suite must run on the wrapped family table.  A
traced pass must also yield every ``per_layer`` metric that BENCHMARK.json
declares, since a metric whose layer vanished is dropped, not zeroed."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import numpy as np
import layers
from thomae_lab.context import CurveContext
from thomae_lab.harness import random_curve

LIVE = [
    "context: thomae_lab.context.CurveContext.const",
    "context: thomae_lab.context.CurveContext.deriv",
    "theta.const: thomae_lab.theta.ThetaEngine.theta",
    "theta.deriv: thomae_lab.theta.ThetaEngine.theta_deriv",
    "thomae.rhs: thomae_lab.thomae.first_thomae_rhs",
    "characteristics: thomae_lab.context.char_of_set",
    "characteristics: thomae_lab.characteristics.Partition.from_set",
    "periods: thomae_lab.harness.compute_periods",
    "thomae.calibration: thomae_lab.harness.calibrate_phases",
]
tracer = layers.Tracer()
layers.install(tracer)
# the context's lookup counters patch under a layer name of their own
absent = [name for name in layers.LAYERS + ("context",) if name not in tracer.present]
assert not absent, f"layers with no live target: {absent}; missing: {tracer.missing}"
gone = [name for name in LIVE if name in tracer.missing]
assert not gone, f"traced entry points gone: {gone}"
ctx = CurveContext.build(random_curve(2, 1))
ctx.consts(np.arange(1 << 6))
assert tracer.radii, "the engine's truncation_radius call was not traced"
# the family table is wrapped in place: a run must still read its entries
from thomae_lab.harness import SuiteConfig, run_suite
report = run_suite(SuiteConfig(spec=random_curve(3, 1), seed=1, cap=5))
assert report.theta["order"] == 2 and report.all_passed()
print("ok")
"""


def test_every_benchmark_layer_finds_a_live_target():
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}:{ROOT / 'bench'}")
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_traced_pass_yields_every_declared_per_layer_metric():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    # one pass as bench/run.py starts it: PYTHONPATH=src, one BLAS thread
    env = dict(run.child_env(), PYTHONPATH=f"{ROOT / 'src'}:{ROOT / 'bench'}")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--src", str(ROOT / "src"),
         "--workload", "suite-g5", "--seed", "1", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = run.layer_metrics(traced, [traced])
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(metrics) == sorted(declared), (
        f"missing {sorted(set(declared) - set(metrics))}, "
        f"undeclared {sorted(set(metrics) - set(declared))}; "
        f"missing targets {traced['trace']['missing']}")
    assert all(math.isfinite(m["value"]) for m in metrics.values()), metrics
