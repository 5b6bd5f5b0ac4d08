"""Shared evaluation context: one curve, its periods, one theta engine.

Relation verifiers read theta constants, gradients and higher derivative
tensors by the thousand.  The context holds no theta array of its own:
:meth:`CurveContext.derivs` maps whole arrays of index masks to
characteristic bits and reads them through the engine's one gather
(:meth:`ThetaEngine.values`), which builds each class of each order the
first time it is read; :meth:`CurveContext.consts` and
:meth:`CurveContext.grads` are its orders 0 and 1.  The context is built
for the highest derivative order k its caller reads (4 by default): the
engine sums orders up to 2 over one lattice, each class read at order 3 or
4 over its own points at R_k, and refuses higher orders.  The context also
computes the curve-wide determinant factor of the Thomae formulas once.  It
holds no per-curve phase: every Thomae phase is a prediction of :mod:`thomae`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .characteristics import char_of_set, mask_chars
from .curve import CurveSpec
from .periods import PeriodData, compute_periods
from .theta import DEFAULT_TOL, DerivThetaTensor, ThetaEngine


@dataclass
class CurveContext:
    spec: CurveSpec
    periods: PeriodData
    engine: ThetaEngine

    @classmethod
    def build(
        cls,
        spec: CurveSpec,
        theta_tol: float = DEFAULT_TOL,
        periods: PeriodData | None = None,
        order: int = 4,
    ) -> "CurveContext":
        periods = periods if periods is not None else compute_periods(spec)
        engine = ThetaEngine(periods.tau, tol=theta_tol, order=order)
        return cls(spec=spec, periods=periods, engine=engine)

    @property
    def g(self) -> int:
        return self.spec.genus

    @cached_property
    def det_factor(self) -> complex:
        """(det omega / pi^g)^{1/2}, the curve's factor in every Thomae right side."""
        det = complex(np.linalg.det(self.periods.omega))
        return cmath.sqrt(det / math.pi**self.g)

    def derivs(self, masks: np.ndarray, order: int) -> np.ndarray:
        """Order-m derivative tensors of theta[I] at 0 for an int array of
        index masks I (bit i = index i): shape masks.shape + (g,)*order."""
        return self.engine.values(mask_chars(self.g)[masks], order)

    def consts(self, masks: np.ndarray) -> np.ndarray:
        """theta[I](0) for an int array of index masks."""
        return self.derivs(masks, 0)

    def grads(self, masks: np.ndarray) -> np.ndarray:
        """Gradients of theta[I] at 0 for an int array of index masks."""
        return self.derivs(masks, 1)

    def const(self, indices: Iterable[int]) -> complex:
        """theta[I](0) for one index set.  No family calls it: it stays as a
        traced entry point of the benchmark (bench/layers.py), whose
        ``context.const.lookups`` and ``context.const.hits`` count its calls."""
        return complex(self.engine.values(char_of_set(self.g, indices).bits, 0))

    def deriv(self, indices: Iterable[int], order: int) -> DerivThetaTensor:
        """theta[I]'s order-m tensor with its scale.  No family calls it: it
        stays as a traced entry point of the benchmark (bench/layers.py),
        whose ``context.deriv.lookups`` and ``context.deriv.hits`` count its
        calls."""
        return self.engine.theta_deriv(char_of_set(self.g, indices), order)
