"""Kinked fading laws: integrals split at every kink, and solves that finish.

A uniform law's edges and an empirical law's knots are kinks of the gain
integrand, and where two cut lines cross, kinks of the outer integrand.
The accuracy test checks the nested integrals against an independent
Gauss-Legendre reference that splits at every one of them; the remaining
tests solve channels with empirical laws and a formerly costly uniform
channel end to end.
"""

import numpy as np
import pytest

from macfade.boundary import compare_modes, rate_point
from macfade.fading import ExponentialGain, PiecewiseLinearEmpirical, UniformGain
from macfade.kernel import (
    CdfMode,
    ChannelConfig,
    LambdaVector,
    RateAwardVector,
    UserSpec,
    outer_request,
    power_integrand,
)
from macfade.montecarlo import estimate
from macfade.quadrature import dyadic_panel_edges
from macfade.solver import achieved_power, solve_lambda

SIGMA2 = 1.0
EMPIRICAL = PiecewiseLinearEmpirical((0.0, 0.4, 1.0, 2.0, 3.5), (0.0, 0.2, 0.55, 0.85, 1.0))


def _channel(*laws):
    return ChannelConfig(SIGMA2, tuple(UserSpec(law, 1.0) for law in laws))


# Exp(1) + U(0.3, 2.5) at fixed weights and prices
MU = (0.7, 0.3)
LAM = (0.2263, 0.3071)
LOW, HIGH = 0.3, 2.5
MIXED = _channel(ExponentialGain(1.0), UniformGain(LOW, HIGH))
KINKS = ((), (LOW, HIGH))
TOP = (-np.log(1e-15), HIGH)  # gains past these carry under 1e-15 of the mass


def _pdf(i, h):
    return np.exp(-h) if i == 0 else np.where((h >= LOW) & (h <= HIGH), 1.0 / (HIGH - LOW), 0.0)


def _cdf(k, x):
    return -np.expm1(-x) if k == 0 else np.clip((x - LOW) / (HIGH - LOW), 0.0, 1.0)


def _gauss_legendre(edges, n=30, panels=8):
    """Nodes and weights of ``panels`` equal n-point Gauss-Legendre panels on
    every gap of ``edges`` (last axis); empty gaps get zero weight."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = np.linspace(0.0, 1.0, panels + 1)
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    a = lo + (hi - lo) * t[:-1]
    b = lo + (hi - lo) * t[1:]
    nodes = 0.5 * (a + b)[..., None] + 0.5 * (b - a)[..., None] * x
    weights = 0.5 * (b - a)[..., None] * w
    shape = (*edges.shape[:-1], -1)
    return nodes.reshape(shape), weights.reshape(shape)


def _reference(i, mode):
    """(achieved power, rate) of user i on MIXED, one smooth piece at a time.

    Inner pieces end at the positivity threshold, the own kinks, the case
    boundary and the gains where the rival's CDF argument reaches one of its
    kinks.  Outer pieces end where the threshold meets an own kink or the
    rival's threshold meets a rival kink; on this channel no other pair of
    those lines crosses inside the window.
    """
    k = 1 - i
    z_top = MU[i] * TOP[i] / (2.0 * LAM[i]) - SIGMA2
    z_cuts = [MU[i] * c / (2.0 * LAM[i]) - SIGMA2 for c in KINKS[i]]
    z_cuts += [MU[k] * c / (2.0 * LAM[k]) - SIGMA2 for c in KINKS[k]]
    z_edges = np.array([0.0, *np.clip(sorted(z_cuts), 0.0, z_top), z_top])
    z, wz = _gauss_legendre(z_edges)
    a = SIGMA2 + z[:, None]
    lower = 2.0 * LAM[i] * a / MU[i]
    cuts = [np.full(a.shape, c) for c in KINKS[i]]
    if MU[k] < MU[i]:
        cuts.append(2.0 * LAM[i] * a / (MU[i] - MU[k]))
    for c in KINKS[k]:
        d = 2.0 * LAM[k] * a - c * (MU[k] - MU[i])
        cuts.append(np.where(d > 0.0, 2.0 * LAM[i] * a * c / np.where(d > 0.0, d, 1.0), TOP[i]))
    top = np.full(a.shape, TOP[i])
    h_edges = np.sort(np.clip(np.concatenate([lower, *cuts, top], axis=1), lower, TOP[i]), axis=1)
    h, wh = _gauss_legendre(h_edges)
    den = 2.0 * LAM[i] * a + (MU[k] - MU[i]) * h
    x = 2.0 * LAM[k] * h * a / np.where(den > 0.0, den, 1.0)
    outside = 0.0 if mode is CdfMode.NAIVE_ZERO else 1.0
    g = _pdf(i, h) * np.where(den > 0.0, _cdf(k, x), outside) * wh
    power = np.sum(wz * np.sum(g / h, axis=1))
    rate = np.sum(wz * np.sum(g, axis=1) / (2.0 * (SIGMA2 + z)))
    return power, rate


@pytest.mark.parametrize("mode", list(CdfMode))
def test_nested_integrals_match_a_reference_split_at_every_kink(mode):
    mu, lam = RateAwardVector(MU), LambdaVector(LAM)
    rates = rate_point(mu, lam, MIXED, mode, tol=1e-11)
    for i in range(2):
        power_ref, rate_ref = _reference(i, mode)
        power = achieved_power(i, mu, lam, MIXED, mode, tol=1e-11)
        assert abs(power - power_ref) <= 1e-10, (i, power, power_ref)
        assert abs(rates[i] - rate_ref) <= 1e-10, (i, rates[i], rate_ref)


def _z_top(i, channel):
    return MU[i] * channel.users[i].fading.tail_point(1e-12) / (2.0 * LAM[i]) - SIGMA2


def _outer_edges(i, mu, lam, channel):
    """Interior edges of user i's outer power integral, tail at 1e-12 as in ``_z_top``."""
    row = outer_request(power_integrand, [i], mu, lam, channel, CdfMode.CORRECTED, 1e-8,
                        1e-12).edges[0]
    return tuple(row[~np.isnan(row)][1:-1].tolist())


def test_outer_edges_add_only_threshold_and_case_boundary_crossings():
    mu, lam = RateAwardVector(MU), LambdaVector(LAM)
    exp2 = _channel(ExponentialGain(1.0), ExponentialGain(2.0))
    for i in range(2):
        z_top = _z_top(i, exp2)
        assert _outer_edges(i, mu, lam, exp2) == tuple(dyadic_panel_edges(0.0, z_top))
    # the rival's threshold reaches its lower edge 0.3 at a negative level
    # and its upper edge 2.5 here, inside user 0's window
    crossing = MU[1] * HIGH / (2.0 * LAM[1]) - SIGMA2
    edges = _outer_edges(0, mu, lam, MIXED)
    assert min(abs(z - crossing) for z in edges) < 1e-12
    # with the weights swapped, user 1's case boundary reaches its upper edge
    swapped = RateAwardVector(MU[::-1])
    z_top = MU[0] * HIGH / (2.0 * LAM[1]) - SIGMA2
    crossing = HIGH * (MU[0] - MU[1]) / (2.0 * LAM[1]) - SIGMA2
    edges = _outer_edges(1, swapped, lam, MIXED)
    assert 0.0 < crossing < z_top
    assert min(abs(z - crossing) for z in edges) < 1e-12


def test_outer_edges_grow_linearly_with_the_knots():
    # two 100-knot laws: the 100 x 100 crossings of rival-kink preimages
    # with own kinks are not edges, the threshold and case-boundary
    # crossings of every knot may be
    h = np.linspace(0.0, 4.0, 101) ** 1.2
    law = PiecewiseLinearEmpirical(tuple(h), tuple(np.linspace(0.0, 1.0, 101)))
    channel = _channel(law, PiecewiseLinearEmpirical(tuple(1.1 * h), tuple(np.linspace(0.0, 1.0, 101))))
    mu, lam = RateAwardVector(MU), LambdaVector(LAM)
    for i in range(2):
        z_top = _z_top(i, channel)
        edges = _outer_edges(i, mu, lam, channel)
        assert len(dyadic_panel_edges(0.0, z_top)) < len(edges) <= 5 + 3 * 100
        assert all(0.0 < a < b < z_top for a, b in zip(edges, edges[1:]))


def _z_scores(channel, mu, solution, n_samples, seed):
    rates = rate_point(mu, solution.lam, channel)
    mc = estimate(channel, mu, solution.lam, n_samples, seed=seed)
    pairs = zip(mc.rates + mc.powers, rates + solution.achieved, mc.rate_se + mc.power_se)
    return [(x - ref) / se for x, ref, se in pairs]


@pytest.mark.parametrize("laws, mu", [
    ((ExponentialGain(1.0), EMPIRICAL), (0.4, 0.6)),
    ((UniformGain(0.3, 2.5), EMPIRICAL), (0.6, 0.4)),
], ids=["exp+empirical", "uniform+empirical"])
def test_empirical_law_solves_and_matches_monte_carlo(laws, mu):
    channel = _channel(*laws)
    mu = RateAwardVector(mu)
    solution = solve_lambda(mu, channel)
    for res in solution.certified_residuals:
        assert abs(res) <= 1e-6
    for z in _z_scores(channel, mu, solution, 2**18, seed=20240814):
        assert abs(z) <= 4.0


def test_compare_modes_at_the_former_cost_cliff():
    # Exp(1.18) + U(0.354, 2.057): once about 8x the cost of the nominal
    # mixed channel, because the uniform edges were not breakpoints
    channel = _channel(ExponentialGain(1.1824), UniformGain(0.35374, 2.05655))
    result = compare_modes(channel, (0.7, 0.3))
    assert result.rates_corrected[0] > result.rates_naive_same_lambda[0]
    assert abs(result.rates_corrected[1] - result.rates_naive_same_lambda[1]) <= 2e-8
    for lam in (result.lam_corrected, result.lam_naive):
        assert all(x > 0.0 for x in lam.lam)
