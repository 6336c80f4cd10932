import functools
import math

import numpy as np
import pytest

from macfade.fading import ExponentialGain, UniformGain
from macfade.kernel import (
    CdfMode,
    ChannelConfig,
    LambdaVector,
    RateAwardVector,
    UserSpec,
    outer_request,
    power_integrand,
    rate_integrand,
    win_probability,
)

from oracles import case_boundary, cdf_factor, clip_star, cross_argument, exp_integral_e1, simpson


def expo_channel(n_users, sigma2=1.0, means=None, pbars=None):
    means = means or [1.0] * n_users
    pbars = pbars or [1.0] * n_users
    return ChannelConfig(sigma2, tuple(
        UserSpec(ExponentialGain(m), p) for m, p in zip(means, pbars)))


CH1 = expo_channel(1)
CH2 = expo_channel(2)


class TestClipStar:
    def test_examples(self):
        assert clip_star(0.5) == 0.5
        assert clip_star(-1.0) == math.inf
        assert clip_star(0.0) == 0.0

    def test_infinities(self):
        assert clip_star(math.inf) == math.inf
        assert clip_star(-math.inf) == math.inf

    def test_idempotence(self):
        rng = np.random.default_rng(11)
        values = list(rng.normal(scale=50.0, size=200)) + [math.inf, -math.inf, 0.0]
        for x in values:
            once = clip_star(x)
            assert clip_star(once) == once
            assert once >= 0.0


class TestCrossArgument:
    def test_equal_weights_term_vanishes(self):
        mu = RateAwardVector((0.5, 0.5))
        lam = LambdaVector((1.0, 1.0))
        assert cross_argument(0, 1, 2.0, 0.0, mu, lam, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_sign_forced_by_denominator(self):
        mu = RateAwardVector((0.8, 0.2))
        lam = LambdaVector((1.0, 1.0))
        assert cross_argument(0, 1, 5.0, 0.0, mu, lam, 1.0) == pytest.approx(-10.0, rel=1e-15)

    def test_positive_branch_arithmetic(self):
        mu = RateAwardVector((0.2, 0.8))
        lam = LambdaVector((1.0, 1.0))
        assert cross_argument(0, 1, 1.0, 0.0, mu, lam, 1.0) == pytest.approx(2.0 / 2.6, rel=1e-15)

    def test_exact_denominator_zero_maps_to_infinity(self):
        mu = RateAwardVector((0.8, 0.2))
        lam = LambdaVector((1.0, 1.0))
        h_star = case_boundary(0, 1, 0.0, mu, lam, 1.0)
        assert cross_argument(0, 1, h_star, 0.0, mu, lam, 1.0) == math.inf


class TestCaseBoundary:
    def test_closed_form(self):
        mu = RateAwardVector((0.8, 0.2))
        lam = LambdaVector((1.0, 1.0))
        assert case_boundary(0, 1, 0.0, mu, lam, 1.0) == pytest.approx(2.0 / 0.6, rel=1e-15)

    def test_none_when_rival_weight_not_smaller(self):
        lam = LambdaVector((1.0, 1.0))
        assert case_boundary(0, 1, 0.0, RateAwardVector((0.2, 0.8)), lam, 1.0) is None
        assert case_boundary(0, 1, 0.0, RateAwardVector((0.5, 0.5)), lam, 1.0) is None


class TestWinProbability:
    def test_single_user_closed_form(self):
        mu = RateAwardVector((1.0,))
        lam = LambdaVector((1.0,))
        p = win_probability(0, 0.0, mu, lam, CH1)
        assert abs(p - math.exp(-2.0)) <= 1e-9

    def test_two_user_symmetric_frozen_value(self):
        # oracle: integrand exp(-h) * (1 - exp(-h)) on [4, inf);
        # closed form exp(-4) - exp(-8)/2, confirmed by Simpson below
        frozen = 0.018147907574782924
        brute = simpson(lambda h: np.exp(-h) * (1.0 - np.exp(-h)), 4.0, 44.0, n=40001)
        assert abs(brute - frozen) <= 1e-12
        mu = RateAwardVector((0.5, 0.5))
        lam = LambdaVector((1.0, 1.0))
        p = win_probability(0, 0.0, mu, lam, CH2)
        assert abs(p - frozen) <= 1e-9

    def test_vanishing_tail(self):
        # lower limit far beyond the 1 - 1e-12 gain quantile
        mu = RateAwardVector((1.0,))
        lam = LambdaVector((50.0,))
        assert win_probability(0, 0.0, mu, lam, CH1) <= 1e-9

    def test_disjoint_winner_events(self):
        mu = RateAwardVector((0.7, 0.3))
        lam = LambdaVector((0.126, 0.0454))
        tol = 1e-9
        for z in np.linspace(0.0, 4.0, 9):
            total = sum(win_probability(i, float(z), mu, lam, CH2, tol=tol)
                        for i in range(2))
            assert total <= 1.0 + 10.0 * tol

    def test_mode_ordering_and_minimum_weight_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu1 = float(rng.uniform(0.15, 0.85))
            mu = RateAwardVector((mu1, 1.0 - mu1))
            lam = LambdaVector(tuple(rng.uniform(0.05, 1.0, size=2)))
            z = float(rng.uniform(0.0, 2.0))
            for i in range(2):
                corrected = win_probability(i, z, mu, lam, CH2, CdfMode.CORRECTED)
                naive = win_probability(i, z, mu, lam, CH2, CdfMode.NAIVE_ZERO)
                assert corrected >= naive - 1e-12
                if mu[i] <= min(mu.mu):
                    assert abs(corrected - naive) <= 1e-9


class TestIntegrands:
    def test_rate_integrand_single_user(self):
        mu = RateAwardVector((1.0,))
        lam = LambdaVector((1.0,))
        value = rate_integrand(0, 0.0, mu, lam, CH1)
        assert abs(value - math.exp(-2.0) / 2.0) <= 1e-9

    def test_power_integrand_is_exponential_integral(self):
        # oracle: E1(2) from the series / continued-fraction implementation
        frozen = 0.048900510708061062
        assert abs(exp_integral_e1(2.0) - frozen) <= 1e-15
        mu = RateAwardVector((1.0,))
        lam = LambdaVector((1.0,))
        value = power_integrand(0, 0.0, mu, lam, CH1)
        assert abs(value - frozen) <= 1e-9

    def test_integrands_nonnegative(self):
        mu = RateAwardVector((0.7, 0.3))
        lam = LambdaVector((0.126, 0.0454))
        for z in (0.0, 0.7, 2.0):
            assert rate_integrand(0, z, mu, lam, CH2) >= 0.0
            assert power_integrand(1, z, mu, lam, CH2) >= 0.0


class TestContinuityAtCaseBoundary:
    def test_corrected_factor_continuous_naive_factor_jumps(self):
        mu = RateAwardVector((0.7, 0.3))
        rng = np.random.default_rng(17)
        for _ in range(10):
            lam = LambdaVector(tuple(rng.uniform(0.2, 2.0, size=2)))
            z = float(rng.uniform(0.0, 2.0))
            h_star = case_boundary(0, 1, z, mu, lam, CH2.sigma2)
            below, above = h_star * (1.0 - 1e-6), h_star * (1.0 + 1e-6)
            corr = [cdf_factor(0, 1, h, z, mu, lam, CH2, CdfMode.CORRECTED)
                    for h in (below, above)]
            naive = [cdf_factor(0, 1, h, z, mu, lam, CH2, CdfMode.NAIVE_ZERO)
                     for h in (below, above)]
            assert abs(corr[0] - corr[1]) < 1e-4
            assert abs(naive[0] - naive[1]) > 0.9


class TestBruteForceAgreement:
    def test_win_probability_matches_direct_monte_carlo(self):
        # direct 2-D simulation of the utility comparison, no shared code
        rng = np.random.default_rng(2718)
        n = 1_000_000
        sigma2 = 1.0
        for trial in range(20):
            mu1 = float(rng.uniform(0.2, 0.8))
            mu = (mu1, 1.0 - mu1)
            lam = tuple(rng.uniform(0.05, 1.2, size=2))
            means = tuple(rng.uniform(0.5, 2.0, size=2))
            z = float(rng.uniform(0.0, 2.5))
            channel = expo_channel(2, sigma2=sigma2, means=list(means))
            gains = np.column_stack([rng.exponential(means[0], size=n),
                                     rng.exponential(means[1], size=n)])
            u = np.asarray(mu) / (2.0 * (sigma2 + z)) - np.asarray(lam) / gains
            i = trial % 2
            k = 1 - i
            wins = (u[:, i] > u[:, k]) & (u[:, i] > 0.0)
            p_hat = float(np.mean(wins))
            p = win_probability(i, z, RateAwardVector(mu), LambdaVector(lam), channel)
            # score-style deviation: the analytic p sets the scale when the
            # empirical count is zero
            se = math.sqrt(max(p_hat * (1.0 - p_hat), p * (1.0 - p)) / n)
            assert abs(p - p_hat) <= 3.0 * se + 1e-9, (
                f"trial {trial}: analytic {p} vs mc {p_hat} +- {se}")


class TestNonConvergence:
    def test_exhausted_budget_raises_with_achieved_estimate(self, monkeypatch):
        from macfade import kernel
        from macfade.quadrature import BatchRequest, QuadratureError

        monkeypatch.setattr(kernel, "BatchRequest", functools.partial(BatchRequest, max_evals=135))
        mu = RateAwardVector((0.7, 0.3))
        lam = LambdaVector((0.126, 0.0454))
        with pytest.raises(QuadratureError) as err:
            win_probability(0, 0.0, mu, lam, CH2, tol=1e-16)
        assert err.value.result is not None
        assert err.value.result.error_estimate > 1e-16


class TestTypeValidation:
    def test_rate_award_vector(self):
        with pytest.raises(ValueError):
            RateAwardVector((0.5, 0.6))       # sum != 1
        with pytest.raises(ValueError):
            RateAwardVector((1.2, -0.2))      # outside (0, 1]
        with pytest.raises(ValueError):
            RateAwardVector((0.0, 1.0))       # zero weight
        assert len(RateAwardVector((0.25, 0.75))) == 2

    def test_lambda_vector(self):
        with pytest.raises(ValueError):
            LambdaVector((0.0, 1.0))
        with pytest.raises(ValueError):
            LambdaVector((1.0, -2.0))
        with pytest.raises(ValueError):
            LambdaVector((1.0, math.inf))

    def test_channel_config(self):
        with pytest.raises(ValueError):
            ChannelConfig(0.0, (UserSpec(ExponentialGain(1.0), 1.0),))
        with pytest.raises(ValueError):
            ChannelConfig(1.0, ())
        with pytest.raises(ValueError):
            UserSpec(ExponentialGain(1.0), 0.0)
        with pytest.raises(TypeError):
            UserSpec("not a distribution", 1.0)
        mixed = ChannelConfig(2.0, (UserSpec(UniformGain(0.0, 3.0), 0.5),
                                    UserSpec(ExponentialGain(1.0), 2.0)))
        assert mixed.n_users == 2
        assert mixed.pbars == (0.5, 2.0)


@pytest.mark.parametrize("inner, quantity", [(power_integrand, "power"),
                                             (rate_integrand, "rate")])
def test_outer_request_names_its_row(inner, quantity):
    lam = LambdaVector((0.2, 0.3))
    req = outer_request(inner, [1, 0], RateAwardVector((0.6, 0.4)), lam, CH2,
                        CdfMode.CORRECTED, 1e-8, 1e-12)
    assert req.prefix(0) == f"outer {quantity} integral of user 1 over z at lam={lam.lam!r}: "
    assert req.prefix(1) == f"outer {quantity} integral of user 0 over z at lam={lam.lam!r}: "
