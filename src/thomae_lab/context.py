"""Shared evaluation context: one curve, its periods, one theta engine.

Relation verifiers look theta constants up by branch-index sets thousands of
times; the context memoizes constants, gradients and derivative tensors per
characteristic so each lattice sum is paid for once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def char(self, indices: Iterable[int]) -> HalfCharacteristic:
        return char_of_set(self.g, indices)

    def partition(self, indices: Iterable[int]) -> Partition:
        return Partition.from_set(self.g, indices)

    def const(self, indices: Iterable[int]) -> complex:
        """Theta constant theta[I](0) for the partition named by the set."""
        c = self.char(indices)
        if c not in self._const:
            self._const[c] = self.engine.theta(c)
        return self._const[c]

    def deriv(self, indices: Iterable[int], order: int) -> DerivThetaTensor:
        c = self.char(indices)
        key = (c, order)
        if key not in self._deriv:
            self._deriv[key] = self.engine.theta_deriv(c, order)
        return self._deriv[key]

    def grad(self, indices: Iterable[int]) -> np.ndarray:
        return self.deriv(indices, 1).entries

    def hess(self, indices: Iterable[int]) -> np.ndarray:
        return self.deriv(indices, 2).entries
