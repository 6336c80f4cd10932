"""Every library entry checks its weights and prices against the channel.

Each entry that takes mu or lam must raise ``ValueError`` on a price that is
not positive and finite, on weights off the simplex, and on a vector whose
length is not the channel's user count, instead of returning a number.
Each entry that takes a CDF mode accepts its members and their values
"corrected" and "naive" alike and refuses anything else, and each that
takes a user index refuses one that is not an integer in [0, n_users).
Each kernel entry refuses an interference level that is negative or NaN,
and gives 0 at +inf, where no gain wins.
The package exports exactly its public names, and each one resolves.
"""

import math
import re

import numpy as np
import pytest

import macfade
from macfade.boundary import rate_point
from macfade.fading import ExponentialGain, UniformGain
from macfade.kernel import (
    CdfMode,
    ChannelConfig,
    UserSpec,
    power_integrand,
    rate_integrand,
    win_probability,
)
from macfade.montecarlo import estimate
from macfade.solver import SolverSettings, achieved_power, solve_lambda

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


MODE_ENTRIES = {
    "win_probability": lambda mode: win_probability(0, Z, MU, LAM, CHANNEL, mode),
    "rate_integrand": lambda mode: rate_integrand(0, Z, MU, LAM, CHANNEL, mode),
    "power_integrand": lambda mode: power_integrand(0, Z, MU, LAM, CHANNEL, mode),
    "achieved_power": lambda mode: achieved_power(0, MU, LAM, CHANNEL, mode),
    "rate_point": lambda mode: rate_point((0.7, 0.3), LAM, CHANNEL, mode),
    "solve_lambda": lambda mode: solve_lambda((0.7, 0.3), CHANNEL, SolverSettings(mode=mode)).lam,
}


@pytest.mark.parametrize("entry", MODE_ENTRIES)
def test_mode_value_equals_its_member(entry):
    results = {mode: MODE_ENTRIES[entry](mode) for mode in CdfMode}
    assert results[CdfMode.CORRECTED] != results[CdfMode.NAIVE_ZERO]  # the modes differ here
    for mode, expected in results.items():
        assert MODE_ENTRIES[entry](mode.value) == expected


@pytest.mark.parametrize("mode", ["bogus", None])
@pytest.mark.parametrize("entry", MODE_ENTRIES)
def test_unknown_mode_raises_value_error(entry, mode):
    with pytest.raises(ValueError, match="is not a valid CdfMode"):
        MODE_ENTRIES[entry](mode)


INDEX_ENTRIES = {
    "win_probability": lambda i: win_probability(i, Z, MU, LAM, CHANNEL),
    "rate_integrand": lambda i: rate_integrand(i, Z, MU, LAM, CHANNEL),
    "power_integrand": lambda i: power_integrand(i, Z, MU, LAM, CHANNEL),
    "achieved_power": lambda i: achieved_power(i, MU, LAM, CHANNEL),
}


@pytest.mark.parametrize("index", [-1, 2, True, 1.0], ids=repr)
@pytest.mark.parametrize("entry", INDEX_ENTRIES)
def test_bad_user_index_raises_value_error(entry, index):
    with pytest.raises(ValueError, match=rf"^user index must be an integer in \[0, 2\), "
                                         rf"not {re.escape(repr(index))}$"):
        INDEX_ENTRIES[entry](index)


LEVEL_ENTRIES = {
    "win_probability": lambda z: win_probability(0, z, MU, LAM, CHANNEL),
    "rate_integrand": lambda z: rate_integrand(0, z, MU, LAM, CHANNEL),
    "power_integrand": lambda z: power_integrand(0, z, MU, LAM, CHANNEL),
}


@pytest.mark.parametrize("z", [-0.5, -2.0, math.nan, np.array([0.5, -3.0])], ids=repr)
@pytest.mark.parametrize("entry", LEVEL_ENTRIES)
def test_negative_or_nan_level_raises_value_error(entry, z):
    with pytest.raises(ValueError, match=r"^interference level z must be nonnegative, not "):
        LEVEL_ENTRIES[entry](z)


@pytest.mark.parametrize("entry", LEVEL_ENTRIES)
def test_infinite_level_gives_zero(entry):
    assert LEVEL_ENTRIES[entry](math.inf) == 0.0
    assert np.array_equal(LEVEL_ENTRIES[entry](np.array([math.inf, math.inf])), [0.0, 0.0])


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
