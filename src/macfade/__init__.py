"""Capacity region boundary of Gaussian multiple-access fading channels.

Computes boundary points of the ergodic capacity region under long-term
average power constraints: per-user power prices are solved so the
water-filling-style allocation meets the budgets, boundary rates follow from
adaptive quadrature of the winner-probability kernel (with corrected handling
of negative CDF arguments), and an independent Monte Carlo simulator of the
per-state marginal-utility auction cross-checks every number.
"""

from .boundary import (
    BoundaryPoint,
    ModeComparison,
    compare_modes,
    rate_point,
    simplex_grid,
    sweep,
)
from .fading import (
    ExponentialGain,
    FadingDistribution,
    PiecewiseLinearEmpirical,
    UniformGain,
)
from .kernel import (
    CdfMode,
    ChannelConfig,
    LambdaVector,
    RateAwardVector,
    UserSpec,
    win_probability,
)
from .montecarlo import McEstimate, estimate
from .quadrature import QuadratureError
from .solver import SolverError, SolverResult, SolverSettings, achieved_power, solve_lambda

__version__ = "0.1.0"

__all__ = [
    "BoundaryPoint",
    "CdfMode",
    "ChannelConfig",
    "ExponentialGain",
    "FadingDistribution",
    "LambdaVector",
    "McEstimate",
    "ModeComparison",
    "PiecewiseLinearEmpirical",
    "QuadratureError",
    "RateAwardVector",
    "SolverError",
    "SolverResult",
    "SolverSettings",
    "UniformGain",
    "UserSpec",
    "achieved_power",
    "compare_modes",
    "estimate",
    "rate_point",
    "simplex_grid",
    "solve_lambda",
    "sweep",
    "win_probability",
]
