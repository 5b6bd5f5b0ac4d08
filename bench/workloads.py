"""Workload inputs for the thomae-lab benchmark, generated from a seed.

The program only ever sees ``CurveSpec``s and a sampling seed; everything
here is benchmark code.

Each workload has fixed base curves, drawn once from the distribution of
``thomae_lab.random_curve`` (uniform on [-10, 10], gaps >= 0.3), and the
seed moves every curve by its own affine map x -> a x + b with a > 0.  That
map leaves tau unchanged, so the lattice, the quadrature refinement and
every verdict stay the same, while the branch points, the periods and the
sampled bindings (the sampling seed is the seed) change with the seed.
Fresh random curves per seed would make wall time a property of the draw:
over twelve random genus-6 curves the points per lattice class ranged from
19k to 63k, and the sweep's total lattice points from 2.9M to 4.1M over
eight seeds.  The single-curve bases are the curves
``thomae-lab verify --genus g --seed 1`` uses, so the workloads stay
comparable with the ROADMAP baselines.
"""

from __future__ import annotations

import numpy as np

from thomae_lab import SuiteConfig
from thomae_lab.curve import validate_curve

LOW, HIGH, MIN_GAP = -10.0, 10.0, 0.3
BASE_SEED = 1
CAP = 500

SWEEP_CURVES = 300
SWEEP_GENERA = (2, 3, 4)
# One quarter of the sweep per entry: None = no close pair, else the nominal
# gap of one adjacent pair of branch points.
SWEEP_GAPS = (None, 1e-2, 1e-4, 1e-5)

WORKLOADS = {
    "suite-g5": {"genus": 5, "relations": None},
    "thomae-g6": {"genus": 6, "relations": ("THOMAE1", "THOMAE2", "THOMAEG")},
    "sweep-g2to4": {"genus": SWEEP_GENERA, "relations": ("THOMAE1",)},
}


def uniform_points(rng: np.random.Generator, g: int) -> np.ndarray:
    """2g+1 sorted uniform points on [LOW, HIGH] with gaps >= MIN_GAP.

    The same rejection sampler as ``thomae_lab.random_curve``.
    """
    while True:
        pts = np.sort(rng.uniform(LOW, HIGH, size=2 * g + 1))
        if np.min(np.diff(pts)) >= MIN_GAP:
            return pts


def affine_image(pts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """a x + b with a in [0.8, 1.25] and b in [-1, 1]: same tau, new points."""
    a = float(np.exp(rng.uniform(np.log(0.8), np.log(1.25))))
    b = float(rng.uniform(-1.0, 1.0))
    return a * pts + b


def close_pair(pts: np.ndarray, gap: float, rng: np.random.Generator) -> np.ndarray:
    """Move one random e_{j+1} to e_j + gap * u, u in [0.8, 1.25].

    Every original gap is >= MIN_GAP > gap, so the points stay sorted and
    only the chosen pair is close.
    """
    out = pts.copy()
    j = int(rng.integers(0, len(pts) - 1))
    out[j + 1] = out[j] + gap * float(np.exp(rng.uniform(np.log(0.8), np.log(1.25))))
    return out


def _config(name: str, pts: np.ndarray, g: int, seed: int, label: str) -> SuiteConfig:
    spec = validate_curve(g, pts.tolist(), label=label)
    return SuiteConfig(spec=spec, relations=WORKLOADS[name]["relations"], cap=CAP, seed=seed)


def _single(name: str, seed: int) -> list[SuiteConfig]:
    g = WORKLOADS[name]["genus"]
    base = uniform_points(np.random.default_rng([g, BASE_SEED]), g)
    pts = affine_image(base, np.random.default_rng([g, BASE_SEED, seed]))
    return [_config(name, pts, g, seed, f"{name}-seed{seed}")]


def _sweep(seed: int) -> list[SuiteConfig]:
    quarter = SWEEP_CURVES // len(SWEEP_GAPS)
    out = []
    for i in range(SWEEP_CURVES):
        g = SWEEP_GENERA[i % len(SWEEP_GENERA)]
        gap = SWEEP_GAPS[i // quarter]
        base_rng = np.random.default_rng([BASE_SEED, i])
        base = uniform_points(base_rng, g)
        if gap is not None:
            base = close_pair(base, gap, base_rng)
        pts = affine_image(base, np.random.default_rng([BASE_SEED, i, seed]))
        out.append(_config("sweep-g2to4", pts, g, seed, f"sweep-{i}-seed{seed}"))
    return out


def build(name: str, seed: int) -> list[SuiteConfig]:
    """The suite configurations of one workload pass, one per curve."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return _sweep(seed) if name == "sweep-g2to4" else _single(name, seed)
