"""Shared evaluation context: one curve, its periods, one theta engine.

Relation verifiers read theta constants and gradients by the thousand.  The
context keeps them in two dense per-curve stores indexed by characteristic
bits eps << g | eps' (``HalfCharacteristic.bits``): ``_C[4^g]`` holds the
constants theta[c](0) and ``_G[4^g, g]`` the gradients.  Each store is the
engine's all-class table (:meth:`ThetaEngine.char_table`), taken in one
assignment on first use.
:meth:`CurveContext.consts` and :meth:`CurveContext.grads` gather whole
arrays of index masks at once (the batched families);
:meth:`CurveContext.const` and :meth:`CurveContext.grad` read one index set.
Derivative tensors of order 2 and up are read from the engine's per
(eps', order) tables (:meth:`ThetaEngine.table`), which cache them; a
dense order-3 store would take about 90 MB at genus 7.  The context is
built for the highest derivative order its caller reads (4 by default): the
engine enumerates its lattice at that order's truncation radius and refuses
higher orders.  The context also computes the curve-wide determinant factor
of the Thomae formulas once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .characteristics import HalfCharacteristic, Partition, char_of_set, mask_chars
from .curve import CurveSpec
from .periods import PeriodData, compute_periods
from .theta import DEFAULT_TOL, DerivThetaTensor, ThetaEngine, _layout

if TYPE_CHECKING:
    from .thomae import PhaseCalibration


@dataclass
class CurveContext:
    spec: CurveSpec
    periods: PeriodData
    engine: ThetaEngine
    # set by ``run_suite`` once the phases are calibrated; THOMAE1 reads it
    calibration: PhaseCalibration | None = field(default=None, repr=False)

    @classmethod
    def build(
        cls,
        spec: CurveSpec,
        quad_order: int = 96,
        theta_tol: float = DEFAULT_TOL,
        periods: PeriodData | None = None,
        order: int = 4,
    ) -> "CurveContext":
        periods = periods if periods is not None else compute_periods(spec, quad_order)
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

    def char(self, indices: Iterable[int]) -> HalfCharacteristic:
        return char_of_set(self.g, indices)

    def partition(self, indices: Iterable[int]) -> Partition:
        return Partition.from_set(self.g, indices)

    @cached_property
    def _C(self) -> np.ndarray:
        return self.engine.char_table(0)[:, 0]

    @cached_property
    def _G(self) -> np.ndarray:
        return self.engine.char_table(1)

    def consts(self, masks: np.ndarray) -> np.ndarray:
        """theta[I](0) for an int array of index masks I (bit i = index i)."""
        return self._C[mask_chars(self.g)[masks]]

    def grads(self, masks: np.ndarray) -> np.ndarray:
        """Gradients of theta[I] at 0 for an int array of index masks; one
        trailing axis of length g."""
        return self._G[mask_chars(self.g)[masks]]

    def derivs(self, masks: np.ndarray, order: int) -> np.ndarray:
        """Order-m derivative tensors of theta[I] at 0 for a 1-d array of
        index masks, stacked: shape (B,) + (g,)*order."""
        g = self.g
        chars = mask_chars(g)[masks]
        eps, eps_prime = chars >> g, chars & ((1 << g) - 1)
        flat = _layout(g, order)[2]  # tensor position -> sorted multi-index column
        out = np.empty((len(chars), len(flat)), dtype=complex)
        for e in set(eps_prime.tolist()):
            rows = eps_prime == e
            out[rows] = self.engine.table(e, order)[0][eps[rows, None], flat]
        return out.reshape((len(chars),) + (g,) * order)

    def const(self, indices: Iterable[int]) -> complex:
        """Theta constant theta[I](0) for the partition named by the set."""
        return self._C.item(self.char(indices).bits)

    def grad(self, indices: Iterable[int]) -> np.ndarray:
        return self._G[self.char(indices).bits]

    def deriv(self, indices: Iterable[int], order: int) -> DerivThetaTensor:
        return self.engine.theta_deriv(self.char(indices), order)
