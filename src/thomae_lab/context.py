"""Shared evaluation context: one curve, its periods, one theta engine.

Relation verifiers read theta constants and gradients by the thousand.  The
context keeps them in two dense per-curve stores indexed by characteristic
bits eps << g | eps' (``HalfCharacteristic.bits``): ``_C[4^g]`` holds the
constants theta[c](0) and ``_G[4^g, g]`` the gradients.  A store starts as
NaN and is filled one eps' column at a time, on demand, from the engine's
per-class table, so a curve computes only the classes its relations touch.
:meth:`CurveContext.consts` and :meth:`CurveContext.grads` gather whole
arrays of index masks at once (the batched families);
:meth:`CurveContext.const` and :meth:`CurveContext.grad` read one index set.
Derivative tensors of order 2 and 3 stay in a dict per (characteristic,
order): a dense order-3 store would take about 90 MB at genus 7.  The
context also computes the curve-wide determinant factor of the Thomae
formulas once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .characteristics import HalfCharacteristic, Partition, _char, char_of_set, mask_chars
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
    _deriv: dict = field(default_factory=dict, repr=False)
    _C: np.ndarray = field(init=False, repr=False, compare=False)
    _G: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._C = np.full(4**self.g, np.nan, dtype=complex)
        self._G = np.full((4**self.g, self.g), np.nan, dtype=complex)

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

    def _lookup(self, order: int, chars):
        """Entries of the order-0 or order-1 store at characteristic bits
        ``chars`` (an int or an int array), filling every eps' column they
        touch while one of them is still empty."""
        store = self._G if order else self._C
        out = store[chars]
        if np.isnan(out).any():
            g = self.g
            for eps_prime in set((np.ravel(chars) & ((1 << g) - 1)).tolist()):
                table = self.engine.table(eps_prime, order)[0]
                store[eps_prime :: 1 << g] = table if order else table[:, 0]
            out = store[chars]
        return out

    def consts(self, masks: np.ndarray) -> np.ndarray:
        """theta[I](0) for an int array of index masks I (bit i = index i)."""
        return self._lookup(0, mask_chars(self.g)[masks])

    def grads(self, masks: np.ndarray) -> np.ndarray:
        """Gradients of theta[I] at 0 for an int array of index masks; one
        trailing axis of length g."""
        return self._lookup(1, mask_chars(self.g)[masks])

    def derivs(self, masks: np.ndarray, order: int) -> np.ndarray:
        """Order-m derivative tensors of theta[I] at 0 for a 1-d array of
        index masks, stacked: shape (B,) + (g,)*order."""
        chars = mask_chars(self.g)[masks].tolist()
        out = np.empty((len(chars),) + (self.g,) * order, dtype=complex)
        for row, c in enumerate(chars):
            out[row] = self._tensor(c, order).entries
        return out

    def const(self, indices: Iterable[int]) -> complex:
        """Theta constant theta[I](0) for the partition named by the set."""
        bits = self.char(indices).bits
        val = self._C.item(bits)  # a NaN (val != val) marks an empty column
        return val if val == val else complex(self._lookup(0, bits))

    def grad(self, indices: Iterable[int]) -> np.ndarray:
        bits = self.char(indices).bits
        first = self._G.item(bits, 0)
        return self._G[bits] if first == first else self._lookup(1, bits)

    def _tensor(self, bits: int, order: int) -> DerivThetaTensor:
        """Order-m tensor of the characteristic with the given bits; orders 0
        and 1 live in the dense stores, so only orders >= 2 are kept."""
        t = self._deriv.get((bits, order))
        if t is None:
            t = self.engine.theta_deriv(_char(self.g, bits), order)
            if order >= 2:
                self._deriv[bits, order] = t
        return t

    def deriv(self, indices: Iterable[int], order: int) -> DerivThetaTensor:
        return self._tensor(self.char(indices).bits, order)

    def hess(self, indices: Iterable[int]) -> np.ndarray:
        return self.deriv(indices, 2).entries
