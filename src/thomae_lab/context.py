"""Shared evaluation context: one curve, its periods, one theta engine.

Relation verifiers look theta constants up by branch-index sets thousands of
times; the context memoizes constants, gradients and derivative tensors per
characteristic, so each is read from the engine's per-class tables once, and
computes the curve-wide determinant factor of the Thomae formulas once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .characteristics import HalfCharacteristic, Partition, char_of_set
from .curve import CurveSpec
from .periods import PeriodData, compute_periods
from .theta import DEFAULT_TOL, DerivThetaTensor, ThetaEngine

if TYPE_CHECKING:
    from .thomae import PhaseCalibration


@dataclass
class CurveContext:
    spec: CurveSpec
    periods: PeriodData
    engine: ThetaEngine
    # set by ``run_suite`` once the phases are calibrated; THOMAE1 reads it
    calibration: PhaseCalibration | None = field(default=None, repr=False)
    _const: dict = field(default_factory=dict, repr=False)
    _deriv: dict = field(default_factory=dict, repr=False)

    @classmethod
    def build(
        cls,
        spec: CurveSpec,
        quad_order: int = 96,
        theta_tol: float = DEFAULT_TOL,
        periods: PeriodData | None = None,
    ) -> "CurveContext":
        periods = periods if periods is not None else compute_periods(spec, quad_order)
        return cls(spec=spec, periods=periods, engine=ThetaEngine(periods.tau, tol=theta_tol))

    @property
    def g(self) -> int:
        return self.spec.genus

    @cached_property
    def det_factor(self) -> complex:
        """(det omega / pi^g)^{1/2}, the curve's factor in every Thomae right side."""
        det = complex(np.linalg.det(self.periods.omega))
        return cmath.sqrt(det / math.pi**self.g)

    def char(self, indices: Iterable[int]) -> HalfCharacteristic:
        return char_of_set(self.g, indices)

    def partition(self, indices: Iterable[int]) -> Partition:
        return Partition.from_set(self.g, indices)

    def const(self, indices: Iterable[int]) -> complex:
        """Theta constant theta[I](0) for the partition named by the set."""
        c = self.char(indices)
        val = self._const.get(c)
        if val is None:
            val = self._const[c] = self.engine.theta(c)
        return val

    def deriv(self, indices: Iterable[int], order: int) -> DerivThetaTensor:
        key = (self.char(indices), order)
        t = self._deriv.get(key)
        if t is None:
            t = self._deriv[key] = self.engine.theta_deriv(*key)
        return t

    def grad(self, indices: Iterable[int]) -> np.ndarray:
        return self.deriv(indices, 1).entries

    def hess(self, indices: Iterable[int]) -> np.ndarray:
        return self.deriv(indices, 2).entries
