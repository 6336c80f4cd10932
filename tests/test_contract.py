"""Every library entry checks its weights and prices against the channel.

Each entry that takes mu or lam must raise ``ValueError`` on a price that is
not positive and finite, on weights off the simplex, and on a vector whose
length is not the channel's user count, instead of returning a number.
The package exports exactly its public names, and each one resolves.
"""

import math

import pytest

import macfade
from macfade.boundary import rate_point
from macfade.fading import ExponentialGain, UniformGain
from macfade.kernel import (
    ChannelConfig,
    UserSpec,
    power_integrand,
    rate_integrand,
    win_probability,
)
from macfade.montecarlo import estimate
from macfade.solver import achieved_power, solve_lambda

CHANNEL = ChannelConfig(1.0, (UserSpec(ExponentialGain(1.0), 1.0),
                              UserSpec(UniformGain(0.3, 2.5), 1.0)))
Z = 0.1
STATES = 5_000
MU = (0.6, 0.4)
LAM = (0.2, 0.3)

ENTRIES = {
    "win_probability": lambda mu, lam: win_probability(0, Z, mu, lam, CHANNEL),
    "rate_integrand": lambda mu, lam: rate_integrand(0, Z, mu, lam, CHANNEL),
    "power_integrand": lambda mu, lam: power_integrand(0, Z, mu, lam, CHANNEL),
    "achieved_power": lambda mu, lam: achieved_power(0, mu, lam, CHANNEL),
    "rate_point": lambda mu, lam: rate_point(mu, lam, CHANNEL),
    "estimate": lambda mu, lam: estimate(CHANNEL, mu, lam, STATES, seed=1),
    "solve_lambda": lambda mu, lam: solve_lambda(mu, CHANNEL, initial_lambda=lam),
}

BAD_INPUTS = {
    "negative own price": (MU, (-0.2, 0.3)),
    "negative rival price": (MU, (0.2, -0.3)),
    "nan price": (MU, (math.nan, 0.3)),
    "3-entry mu": ((0.5, 0.3, 0.2), LAM),
    "3-entry lam": (MU, (0.2, 0.3, 0.1)),
    "mu off the simplex": ((5.0, 0.4), LAM),
    "string weight": (("0.6", 0.4), LAM),
    "bool price": (MU, (True, 0.3)),
}


@pytest.mark.parametrize("bad", BAD_INPUTS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_bad_weights_or_prices_raise_value_error(entry, bad):
    mu, lam = BAD_INPUTS[bad]
    with pytest.raises(ValueError):
        ENTRIES[entry](mu, lam)


EXPORTS = [
    "CdfMode", "ChannelConfig", "ExponentialGain", "FadingDistribution", "LambdaVector",
    "PiecewiseLinearEmpirical", "QuadratureError", "RateAwardVector", "SolverError",
    "SolverSettings", "UniformGain", "UserSpec", "achieved_power", "compare_modes",
    "estimate", "rate_point", "simplex_grid", "solve_lambda", "sweep", "win_probability",
]


def test_package_exports():
    assert sorted(macfade.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(macfade, name), name
