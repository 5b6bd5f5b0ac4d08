import importlib.util
from pathlib import Path

import numpy as np
import pytest

from thomae_lab.context import CurveContext
from thomae_lab.curve import validate_curve
from thomae_lab.harness import random_curve

# One well-spaced curve per genus, shared across the whole session so the
# theta caches are paid for once.
_CURVES = {
    1: [-1.0, 0.0, 1.0],
    2: [1.0, 2.0, 3.0, 4.0, 5.0],
    3: [-3.1, -1.9, -0.4, 0.8, 2.2, 3.7, 5.1],
    4: [-4.2, -3.0, -1.8, -0.7, 0.4, 1.5, 2.9, 4.0, 5.3],
    5: [-5.1, -3.8, -2.5, -1.2, 0.1, 1.3, 2.6, 3.8, 5.0, 6.3, 7.7],
    6: [-6.0, -4.9, -3.7, -2.4, -1.1, 0.2, 1.4, 2.7, 3.9, 5.1, 6.2, 7.5, 8.8],
}


def assert_same_text(got: str, want: str) -> None:
    """Equal texts, or their first difference in a short window: pytest's
    own diff of two texts of a megabyte takes minutes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        start = max(at - 300, 0)
        pytest.fail(f"first difference at {at}:\n{got[start:at + 200]}\n---\n"
                    f"{want[start:at + 200]}")


@pytest.fixture(scope="session")
def curve():
    def get(g):
        return validate_curve(g, _CURVES[g], label=f"test-g{g}")

    return get


@pytest.fixture(scope="session")
def ctx(curve):
    cache = {}

    def get(g) -> CurveContext:
        if g not in cache:
            cache[g] = CurveContext.build(curve(g))
        return cache[g]

    return get


@pytest.fixture(scope="session")
def random_ctx():
    cache = {}

    def get(g, seed) -> CurveContext:
        key = (g, seed)
        if key not in cache:
            cache[key] = CurveContext.build(random_curve(g, seed))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def sweep_curves():
    """The 300 curves of the benchmark's sweep-g2to4 workload at seed 1: a
    quarter each without a close pair and with one pair about 1e-2, 1e-4 or
    1e-5 apart."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cfg.spec for cfg in workloads.build("sweep-g2to4", 1)]


@pytest.fixture(scope="session")
def one():
    """one(verify, ctx, *parts, **kw): the record of a single binding, from a
    batch verifier run on a one-row array.  Each part is one column: an int
    as itself, a tuple of ints as the bit mask of that index set."""

    def run(verify, ctx, *parts, **kw):
        row = [sum(1 << i for i in p) if isinstance(p, tuple) else p for p in parts]
        return verify(ctx, np.array([row], dtype=np.int64), **kw)[0]

    return run
