"""Capacity region boundary of Gaussian multiple-access fading channels.

Computes boundary points of the ergodic capacity region under long-term
average power constraints: per-user power prices are solved so the
water-filling-style allocation meets the budgets, boundary rates follow from
adaptive quadrature of the winner-probability kernel (with corrected handling
of negative CDF arguments), and an independent Monte Carlo simulator of the
per-state marginal-utility auction cross-checks every number.
"""

from .boundary import compare_modes, rate_point, simplex_grid, sweep
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
from .montecarlo import estimate
from .quadrature import QuadratureError
from .solver import SolverError, SolverSettings, achieved_power, solve_lambda

__version__ = "0.1.0"

__all__ = [
    "CdfMode",
    "ChannelConfig",
    "ExponentialGain",
    "FadingDistribution",
    "LambdaVector",
    "PiecewiseLinearEmpirical",
    "QuadratureError",
    "RateAwardVector",
    "SolverError",
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
