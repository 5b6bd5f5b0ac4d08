"""Numerical certification of theta-constant relations on hyperelliptic
curves with real branch points: period matrices, theta derivative tensors,
Thomae formulas, gradient/Hessian/third-derivative identities and
Schottky-type relations."""

from .characteristics import HalfCharacteristic, Partition
from .context import CurveContext
from .curve import CurveSpec, validate_curve
from .harness import Report, SuiteConfig, random_curve, run_suite
from .periods import PeriodData, abel_images, compute_periods, halfperiod_residual
from .theta import DerivThetaTensor, ThetaEngine, truncation_radius
from .thomae import (
    PhaseCalibration,
    calibrate_phases,
    first_thomae_rhs,
    general_thomae_batch,
)

__version__ = "0.1.0"
