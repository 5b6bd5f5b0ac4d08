"""Mutation analysis of the predicted phases (DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 1978).  Multiplying one right
side by -1, +-i or exp(i pi/4) must fail at least one record of its family:
a family that fitted the phase or the sign would pass them all.

Each family's right side is scaled where it is formed: THOMAE1's ratio
kernel theta/rhs, the general Thomae tensors of THOMAE2 and THOMAEG, and
CONJ_M's coefficient tensor R.  RJ_DET forms its right side inline, so it is
scaled where the two sides meet.  EKLM and EJI form theirs inline from one
gather of theta constants each, whose first constant enters squared (EKLM)
or to the fourth power (EJI) in the numerator; it is scaled by the square or
fourth root of the factor.  So every right side EJI forms is scaled alike,
and its checks of other (j_n, j_m) pairs, which compare two right sides and
would fail any factor applied to one of them, see no change.  A sign fitted
between the formed right side and the comparison would absorb -1.
"""

import cmath
import math

import numpy as np
import pytest

from thomae_lab import harness
from thomae_lab import relations as rel
from thomae_lab.context import CurveContext
from thomae_lab.harness import SuiteConfig, random_curve, run_suite


def _scaled_output(fn, factor):
    return lambda *args: fn(*args) * factor


def _scaled_tensors(fn, factor):
    return lambda *args: tuple(t * factor for t in fn(*args))


def _scaled_rhs(fn, factor):
    return lambda lhs, rhs: fn(lhs, rhs * factor)


def _scaled_first_constant(power):
    def wrap(fn, factor):
        def consts(self, masks):
            out = fn(self, masks)
            scale = np.ones(out.shape[1:], dtype=complex)
            scale[0] = factor ** (1 / power)
            return out * scale

        return consts

    return wrap


# family -> (module, name, wrap(fn, factor)): the function the mutation wraps
RIGHT_SIDES = {
    "THOMAE1": (harness, "calibrate_phases", lambda fn, c: _scaled_output(fn, 1 / c)),
    "THOMAE2": (harness, "general_thomae_batch", _scaled_tensors),
    "THOMAEG": (harness, "general_thomae_batch", _scaled_tensors),
    "CONJ_M": (rel, "general_r_tensor", _scaled_output),
    "RJ_DET": (rel, "_match_residuals", _scaled_rhs),
    "EKLM": (CurveContext, "consts", _scaled_first_constant(2)),
    "EJI": (CurveContext, "consts", _scaled_first_constant(4)),
}
FACTORS = {"-1": -1.0, "i": 1j, "-i": -1j, "exp(i pi/4)": cmath.exp(1j * math.pi / 4)}
CASES = [(family, factor) for factor in FACTORS for family in RIGHT_SIDES]


@pytest.mark.parametrize("family,factor", CASES)
def test_a_phase_error_in_one_right_side_fails_its_family(monkeypatch, family, factor):
    module, name, wrap = RIGHT_SIDES[family]
    monkeypatch.setattr(module, name, wrap(getattr(module, name), FACTORS[factor]))
    # genus 5 runs THOMAEG at m = 2 and 3 and CONJ_M at |K| = 3, 4, 5
    report = run_suite(SuiteConfig(spec=random_curve(5, 1), relations=(family,), cap=50, seed=1))
    records = [r for r in report.records if r.relation_id == family]
    assert records and not all(r.passed for r in records), (family, factor)
