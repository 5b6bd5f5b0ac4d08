"""Numerical certification of theta-constant relations on hyperelliptic
curves with real branch points: period matrices, theta derivative tensors,
Thomae formulas, gradient/Hessian/third-derivative identities and
Schottky-type relations."""

from .characteristics import (
    HalfCharacteristic,
    Partition,
    branch_char,
    char_sum,
    char_to_partition,
    enumerate_partitions,
    parity,
    partition_char,
    riemann_char,
    set_order_less,
)
from .context import CurveContext
from .curve import CurveSpec, validate_curve
from .harness import Report, SuiteConfig, random_curve, run_suite
from .periods import PeriodData, abel_branch_point, compute_periods, halfperiod_residual
from .theta import DerivThetaTensor, ThetaEngine, ThetaParams, truncation_radius
from .thomae import (
    PhaseCalibration,
    calibrate_phases,
    first_thomae_rhs,
    general_thomae_batch,
)

__version__ = "0.1.0"
