"""Layer spans and counters recorded around thomae-lab's public entry points.

``install`` patches each traced name where the program looks it up (for
example ``thomae_lab.context.char_of_set`` rather than the defining module's
copy), so nothing under ``src/`` changes.  A span is (layer, start, end,
parent, curve); a layer's self time is its spans' time minus the time of
their child spans.  Spans stay in memory until ``write``.

Layers are named after modules:

- ``periods``: ``compute_periods`` as the harness calls it;
- ``theta.lattice``: the first ``theta``/``theta_deriv`` call per
  (engine, eps') class, which is the call that builds the lattice class;
- ``theta.const`` / ``theta.deriv``: every later ``ThetaEngine.theta`` /
  ``ThetaEngine.theta_deriv`` call;
- ``characteristics``: ``char_of_set`` as bound in ``context``,
  ``Partition.from_set`` and ``enumerate_partitions`` as bound in ``harness``;
- ``thomae.calibration`` / ``thomae.rhs``: ``calibrate_phases`` and the
  closed-form right-hand sides;
- ``relations``: the family runners and the relation/Schottky verifiers;
- ``harness``: the rest of ``run_suite`` (the root span of each curve).

A target that no longer exists is listed in ``missing``; a layer whose
targets are all missing is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import weakref
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "harness",
    "periods",
    "theta.lattice",
    "theta.const",
    "theta.deriv",
    "characteristics",
    "thomae.calibration",
    "thomae.rhs",
    "relations",
)

# (layer, module under thomae_lab, attribute path) for plain span wrappers.
SPAN_TARGETS = (
    ("periods", "harness", "compute_periods"),
    ("characteristics", "context", "char_of_set"),
    ("characteristics", "characteristics", "Partition.from_set"),
    ("characteristics", "harness", "enumerate_partitions"),
    ("thomae.calibration", "harness", "calibrate_phases"),
    ("thomae.rhs", "harness", "first_thomae_rhs"),
    ("thomae.rhs", "harness", "second_thomae_rhs_vector"),
    ("thomae.rhs", "harness", "general_thomae_rhs"),
    ("thomae.rhs", "harness", "general_thomae_ratio_rhs"),
    ("thomae.rhs", "thomae", "first_thomae_rhs"),
    ("thomae.rhs", "schottky", "first_thomae_rhs"),
    ("relations", "relations", "verify_eklm"),
    ("relations", "relations", "verify_eji"),
    ("relations", "relations", "verify_grad2"),
    ("relations", "relations", "verify_grad3"),
    ("relations", "relations", "verify_grad4"),
    ("relations", "relations", "verify_gradN"),
    ("relations", "relations", "collection_rank"),
    ("relations", "relations", "hessian_repr"),
    ("relations", "relations", "hessian_repr_equiv"),
    ("relations", "relations", "hessian_rank"),
    ("relations", "relations", "third_deriv_repr"),
    ("relations", "relations", "conjecture_m_repr"),
    ("relations", "relations", "riemann_jacobi_det"),
    ("relations", "schottky", "verify_schottky_R"),
    ("relations", "schottky", "verify_appendix_f"),
)

class Tracer:
    def __init__(self):
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        self._layer: list[int] = []
        self._parent: list[int] = []
        self._curve: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._stack: list[int] = []
        self.curve = -1
        self.counters: Counter = Counter()
        self.per_curve: list[tuple[int, int, int, float]] = []  # curve, order, doublings, error
        self.radii: list[float] = []
        self.radius_inputs: dict[int, tuple] = {}
        self.radius_fn = None
        self.missing: list[str] = []
        self.present: set[str] = {"harness"}

    def call(self, layer: str, fn, args, kwargs):
        i = len(self._layer)
        self._layer.append(self.layer_id[layer])
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._curve.append(self.curve)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[i] = perf_counter()
            self._stack.pop()

    def wrap(self, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            # Callers consume the whole sequence; materialising it inside the
            # span charges the generator's work to its own layer.
            def run(*args, **kwargs):
                return iter(list(fn(*args, **kwargs)))
        else:
            run = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, run, args, kwargs)

        return wrapper

    @property
    def n_spans(self) -> int:
        return len(self._layer)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.asarray(self._layer, dtype=np.int16),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "curve": np.asarray(self._curve, dtype=np.int32),
            "start": np.asarray(self._start, dtype=float),
            "end": np.asarray(self._end, dtype=float),
        }

    def layer_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds per layer and the number of outermost spans per layer
        (a span nested directly in a span of its own layer is not a new call)."""
        s = self.spans()
        dur = s["end"] - s["start"]
        nested = s["parent"] >= 0
        child = np.bincount(s["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        n = len(LAYERS)
        self_s = np.bincount(s["layer"], weights=own, minlength=n)
        parent_layer = np.where(nested, s["layer"][np.maximum(s["parent"], 0)], -1)
        calls = np.bincount(s["layer"][parent_layer != s["layer"]], minlength=n)
        present = [name for name in LAYERS if name in self.present]
        return ({k: float(self_s[self.layer_id[k]]) for k in present},
                {k: int(calls[self.layer_id[k]]) for k in present})

    def radius_ratio(self) -> float | None:
        """Median over engines of the order-0 radius over the radius used."""
        ratios = [self.radius_fn(tau, tol, order=0) / r
                  for tau, tol, r in self.radius_inputs.values()]
        return float(np.median(ratios)) if ratios else None

    def write(self, path) -> None:
        """Spans, plus the quadrature order, doublings and error per curve."""
        cols = list(zip(*self.per_curve)) or [()] * 4
        curve, order, doublings, error = (np.asarray(c) for c in cols)
        np.savez_compressed(path, layers=np.asarray(LAYERS), **self.spans(),
                            periods_curve=curve, quad_order=order, doublings=doublings,
                            est_error=error)


def _resolve(root, path: str):
    obj = root
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _set(tracer: Tracer, layer: str, modname: str, path: str, make) -> bool:
    """Replace modname.path by make(original); record it missing if absent."""
    try:
        mod = importlib.import_module(f"thomae_lab.{modname}")
        owner_path, _, name = path.rpartition(".")
        owner = _resolve(mod, owner_path) if owner_path else mod
        raw = inspect.getattr_static(owner, name)
    except (ImportError, AttributeError):
        tracer.missing.append(f"{layer}: thomae_lab.{modname}.{path}")
        return False
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, name, type(raw)(make(raw.__func__)))
    else:
        setattr(owner, name, make(raw))
    tracer.present.add(layer)
    return True


def install(tracer: Tracer) -> None:
    """Patch every traced entry point of the imported thomae_lab package."""
    for layer, mod, path in SPAN_TARGETS:
        _set(tracer, layer, mod, path, functools.partial(tracer.wrap, layer))
    _install_families(tracer)
    _install_periods_counters(tracer)
    _install_theta(tracer)
    _install_context(tracer)


def _install_families(tracer: Tracer) -> None:
    try:
        from thomae_lab.harness import FAMILIES
    except ImportError:
        tracer.missing.append("relations: thomae_lab.harness.FAMILIES")
        return
    for family, runner in list(FAMILIES.items()):
        FAMILIES[family] = tracer.wrap("relations", runner)
    tracer.present.add("relations")


def _install_periods_counters(tracer: Tracer) -> None:
    def make(traced):
        sig = inspect.signature(traced)

        @functools.wraps(traced)
        def wrapper(*args, **kwargs):
            out = traced(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            doublings = int(round(np.log2(out.quad_order / (2 * a["quad_order"]))))
            tracer.per_curve.append((tracer.curve, out.quad_order, doublings, out.est_error))
            tracer.counters["periods.doublings"] += doublings
            tracer.counters["periods.unconverged"] += int(out.est_error > a["refine_tol"])
            return out

        return wrapper

    # Wraps the span wrapper set above, so the counters run outside the span.
    _set(tracer, "periods", "harness", "compute_periods", make)


def _install_theta(tracer: Tracer) -> None:
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    counters = tracer.counters

    def layer_of(engine, char, default: str) -> str:
        classes = seen.setdefault(engine, set())
        key = char.eps_prime
        if key in classes:
            return default
        classes.add(key)
        counters["theta.lattice.classes"] += 1
        return "theta.lattice"

    def make_const(fn):
        @functools.wraps(fn)
        def theta(engine, char, *args, **kwargs):
            counters["theta.const.calls"] += 1
            layer = layer_of(engine, char, "theta.const")
            return tracer.call(layer, fn, (engine, char) + args, kwargs)

        return theta

    def make_deriv(fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def theta_deriv(engine, char, *args, **kwargs):
            order = sig.bind(engine, char, *args, **kwargs).arguments["order"]
            counters["theta.deriv.calls"] += 1
            counters[f"theta.deriv.calls.o{order}"] += 1
            layer = layer_of(engine, char, "theta.deriv")
            return tracer.call(layer, fn, (engine, char) + args, kwargs)

        return theta_deriv

    def make_radius(fn):
        sig = inspect.signature(fn)
        tracer.radius_fn = fn

        @functools.wraps(fn)
        def truncation_radius(*args, **kwargs):
            r = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            tracer.radii.append(r)
            tracer.radius_inputs.setdefault(id(a["tau"]), (a["tau"], a["tol"], r))
            return r

        return truncation_radius

    if _set(tracer, "theta.const", "theta", "ThetaEngine.theta", make_const):
        tracer.present.add("theta.lattice")
    if _set(tracer, "theta.deriv", "theta", "ThetaEngine.theta_deriv", make_deriv):
        tracer.present.add("theta.lattice")
    _set(tracer, "theta.lattice", "theta", "truncation_radius", make_radius)


def _install_context(tracer: Tracer) -> None:
    """Cache lookups, and hits: lookups that triggered no engine call."""
    counters = tracer.counters

    def make(kind: str, engine_counter):
        def deco(fn):
            @functools.wraps(fn)
            def lookup(*args, **kwargs):
                before = engine_counter()
                out = fn(*args, **kwargs)
                counters[f"context.{kind}.lookups"] += 1
                counters[f"context.{kind}.hits"] += int(engine_counter() == before)
                return out

            return lookup

        return deco

    _set(tracer, "context", "context", "CurveContext.const",
         make("const", lambda: counters["theta.const.calls"]))
    _set(tracer, "context", "context", "CurveContext.deriv",
         make("deriv", lambda: counters["theta.deriv.calls"]))
