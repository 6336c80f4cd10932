import itertools
import math
import warnings

import numpy as np
import pytest

from macfade import solver
from macfade.boundary import (
    _rate_point_detailed,
    compare_modes,
    rate_point,
    simplex_grid,
    sweep,
)
from macfade.fading import ExponentialGain, UniformGain
from macfade.kernel import CdfMode, ChannelConfig, LambdaVector, RateAwardVector, UserSpec
from macfade.quadrature import QuadratureError
from macfade.solver import SolverSettings, achieved_power, solve_lambda

from oracles import wf_rate, wf_solve_lambda


def expo_channel(n_users, sigma2=1.0, means=None, pbars=None):
    means = means or [1.0] * n_users
    pbars = pbars or [1.0] * n_users
    return ChannelConfig(sigma2, tuple(
        UserSpec(ExponentialGain(m), p) for m, p in zip(means, pbars)))


CH1 = expo_channel(1)
CH2 = expo_channel(2)

# loose-but-certified settings keep the sweep tests quick
FAST = SolverSettings(power_rel_tol=1e-5)


class TestRatePoint:
    def test_single_user_matches_water_filling_rate(self):
        result = solve_lambda(RateAwardVector((1.0,)), CH1)
        rate = rate_point(RateAwardVector((1.0,)), result.lam, CH1)[0]
        oracle = wf_rate(wf_solve_lambda(1.0, 1.0, 1.0), 1.0, 1.0)
        assert rate == pytest.approx(oracle, rel=1e-5)

    def test_symmetric_rates_coincide(self):
        mu = RateAwardVector((0.5, 0.5))
        result = solve_lambda(mu, CH2)
        rates = rate_point(mu, result.lam, CH2)
        assert abs(rates[0] - rates[1]) <= 1e-6

    def test_equal_weights_make_modes_identical(self):
        mu = RateAwardVector((0.5, 0.5))
        lam = LambdaVector((0.08, 0.08))
        corrected = rate_point(mu, lam, CH2, CdfMode.CORRECTED)
        naive = rate_point(mu, lam, CH2, CdfMode.NAIVE_ZERO)
        for c, n in zip(corrected, naive):
            assert abs(c - n) <= 1e-8

    def test_mode_ordering_at_shared_prices(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            mu1 = float(rng.uniform(0.2, 0.8))
            mu = RateAwardVector((mu1, 1.0 - mu1))
            lam = LambdaVector(tuple(rng.uniform(0.03, 0.5, size=2)))
            corrected = rate_point(mu, lam, CH2, CdfMode.CORRECTED)
            naive = rate_point(mu, lam, CH2, CdfMode.NAIVE_ZERO)
            for c, n in zip(corrected, naive):
                assert c >= n - 1e-10

    def test_priced_out_user_has_an_empty_window(self):
        # user 0's threshold 2*lam*sigma2/mu = 40 lies past its tail point:
        # no outer integral is built, and its rate and error are exactly 0
        mu, lam = CH2.weights((0.5, 0.5)), CH2.prices((10.0, 0.1))
        rates = rate_point(mu, lam, CH2)
        assert rates[0] == 0.0 and rates[1] > 0.0
        detailed, errors = _rate_point_detailed(mu, lam, CH2, CdfMode.CORRECTED, 1e-8, 1e-12)
        assert detailed == rates
        assert errors[0] == 0.0 and errors[1] > 0.0

    def test_rates_increase_with_power_budget(self):
        mu = RateAwardVector((0.6, 0.4))
        lo = solve_lambda(mu, CH2, FAST)
        rates_lo = rate_point(mu, lo.lam, CH2)
        rich = expo_channel(2, pbars=[10.0, 10.0])
        hi = solve_lambda(mu, rich, FAST)
        rates_hi = rate_point(mu, hi.lam, rich)
        for a, b in zip(rates_hi, rates_lo):
            assert a > b


class TestSimplexGrid:
    def test_two_user_nine_points(self):
        grid = simplex_grid(2, 10)
        assert len(grid) == 9
        assert grid[0].mu == (0.1, 0.9)
        assert grid[-1].mu == (0.9, 0.1)

    def test_three_user_fifteen_points(self):
        grid = simplex_grid(3, 7)
        assert len(grid) == 15
        for mu in grid:
            assert abs(sum(mu.mu) - 1.0) <= 1e-12
            assert min(mu.mu) >= 1.0 / 7.0 - 1e-15

    def test_single_user_grid(self):
        grid = simplex_grid(1, 1)
        assert len(grid) == 1
        assert grid[0].mu == (1.0,)

    @pytest.mark.parametrize("n_users", [1, 2, 3, 4])
    def test_matches_an_independent_enumeration_in_order(self, n_users):
        for resolution in range(n_users, 11):
            lattice = sorted(k for k in itertools.product(range(1, resolution + 1), repeat=n_users)
                             if sum(k) == resolution)
            assert [mu.mu for mu in simplex_grid(n_users, resolution)] == [
                tuple(k_i / resolution for k_i in k) for k in lattice]

    def test_validation(self):
        with pytest.raises(ValueError):
            simplex_grid(3, 2)
        with pytest.raises(ValueError):
            simplex_grid(2, 10, mu_min=0.5)
        assert simplex_grid(np.int64(2), np.int64(4)) == simplex_grid(2, 4)

    @pytest.mark.parametrize("n_users, resolution", [(0, 0), (0, 1), (-1, 3), (True, 3)])
    def test_user_count_is_named(self, n_users, resolution):
        with pytest.raises(ValueError, match="^n_users "):
            simplex_grid(n_users, resolution)


class TestSweep:
    def test_two_user_sweep_traces_concave_boundary(self):
        grid = simplex_grid(2, 10)
        points = sweep(CH2, grid, FAST)
        assert len(points) == 9
        assert all(p.ok for p in points)
        # rates move monotonically along the sweep
        r1 = [p.rates[0] for p in points]
        r2 = [p.rates[1] for p in points]
        assert all(b > a for a, b in zip(r1, r1[1:]))
        assert all(b < a for a, b in zip(r2, r2[1:]))
        # concavity: each interior point sits on or above the chord of its
        # neighbors (region convexity, no point dominated by time sharing)
        for a, b, c in zip(points, points[1:], points[2:]):
            t = (b.rates[0] - a.rates[0]) / (c.rates[0] - a.rates[0])
            chord = a.rates[1] + t * (c.rates[1] - a.rates[1])
            assert b.rates[1] >= chord - 1e-6

    def test_sweep_diagnostics_certify_powers(self):
        points = sweep(CH2, simplex_grid(2, 10), FAST)
        for p in points:
            for res in p.diagnostics.certified_residuals:
                assert abs(res) <= FAST.power_rel_tol

    def test_single_point_grid(self):
        points = sweep(CH1, simplex_grid(1, 1), FAST)
        assert len(points) == 1
        assert points[0].ok
        assert points[0].rates[0] > 0.3

    def test_label_swap_mirrors_sweep(self):
        grid = simplex_grid(2, 5)
        points = sweep(CH2, grid, FAST)
        swapped = sweep(CH2, [RateAwardVector(tuple(reversed(mu.mu))) for mu in grid],
                        FAST)
        for p, q in zip(points, swapped):
            assert p.rates[0] == pytest.approx(q.rates[1], abs=2e-5)
            assert p.rates[1] == pytest.approx(q.rates[0], abs=2e-5)

    def test_acceptance_4_sweeps_stay_within_power_integral_bounds(self):
        # The acceptance-4 grids, warm-started from weight-scaled prices and
        # the neighbour's Jacobian: 86 and 306 power integrals when pinned.
        for channel, grid, bound in [
            (CH2, simplex_grid(2, 10), 120),
            (expo_channel(3, means=[0.5, 1.0, 2.0]), simplex_grid(3, 7), 400),
        ]:
            points = sweep(channel, grid)
            assert all(p.ok for p in points)
            assert sum(p.diagnostics.solver_power_evals for p in points) <= bound
            for p in points:
                assert max(map(abs, p.diagnostics.certified_residuals)) <= 1e-6

    def test_failed_point_recorded_not_raised(self):
        settings = SolverSettings(power_rel_tol=1e-5, max_outer_iters=1)
        points = sweep(CH2, simplex_grid(2, 4), settings)
        assert len(points) == 3
        assert any(not p.ok for p in points)
        for p in points:
            if not p.ok:
                assert p.status.startswith("error:")
                assert p.rates is None

    def test_quadrature_failure_status_names_the_newton_step(self, monkeypatch):
        def failing(*args):
            raise QuadratureError("outer power integral: quadrature did not converge")

        monkeypatch.setattr(solver, "achieved_power", failing)
        (point,) = sweep(CH2, [(0.6, 0.4)], FAST)
        assert point.status.startswith("error: outer power integral: quadrature did not converge; "
                                       "in the solver's Newton step 1 from lam=(")
        assert point.status.endswith("last residuals none yet")


class TestCompareModes:
    def test_asymmetric_gap_pattern(self):
        report = compare_modes(CH2, RateAwardVector((0.7, 0.3)), FAST)
        # the larger-weight user loses rate under the naive treatment
        assert report.same_lambda_gap_abs[0] > 0.01
        # the minimum-weight user has no sign-change region in its own kernel
        assert abs(report.same_lambda_gap_abs[1]) <= 1e-8
        # end to end the naive pipeline misprices both users
        assert abs(report.end_to_end_gap_abs[0]) > 0.01
        assert report.lam_naive.lam != report.lam_corrected.lam

    def test_uniform_weights_no_gaps(self):
        report = compare_modes(CH2, RateAwardVector((0.5, 0.5)), FAST)
        for gap in report.same_lambda_gap_abs + report.end_to_end_gap_abs:
            assert abs(gap) <= 1e-6

    def test_single_user_no_gaps(self):
        report = compare_modes(CH1, RateAwardVector((1.0,)), FAST)
        assert abs(report.same_lambda_gap_abs[0]) <= 1e-8
        assert abs(report.end_to_end_gap_abs[0]) <= 1e-5


class TestRateSettings:
    """Rates are integrated at the tolerance and tail the prices are solved at."""

    CHANNEL = ChannelConfig(1.0, (UserSpec(ExponentialGain(1.0), 1.0),
                                  UserSpec(UniformGain(0.3, 2.5), 1.0)))
    MU = RateAwardVector((0.6, 0.4))
    # loose enough that the rates differ from those at the library defaults
    LOOSE = SolverSettings(power_rel_tol=1e-5, quad_abs_tol=1e-4, tail_epsilon=1e-3)

    def _rates_at_settings(self, lam, mode):
        return rate_point(self.MU, lam, self.CHANNEL, mode,
                          self.LOOSE.quad_abs_tol, self.LOOSE.tail_epsilon)

    def test_sweep(self):
        (point,) = sweep(self.CHANNEL, [self.MU], self.LOOSE)
        assert point.ok
        assert point.rates == self._rates_at_settings(point.lam, CdfMode.CORRECTED)
        assert point.rates != rate_point(self.MU, point.lam, self.CHANNEL)

    def test_compare_modes(self):
        report = compare_modes(self.CHANNEL, self.MU, self.LOOSE)
        assert report.rates_corrected == self._rates_at_settings(report.lam_corrected,
                                                                 CdfMode.CORRECTED)
        assert report.rates_naive_end_to_end == self._rates_at_settings(report.lam_naive,
                                                                        CdfMode.NAIVE_ZERO)


@pytest.mark.parametrize("lam", [[math.nan, 0.1], [0.0, 0.1]])
def test_unbounded_or_nan_window_raises(lam):
    """A price of 0 or NaN is refused by the price check before any window is built."""
    mu = RateAwardVector((0.6, 0.4))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            rate_point(mu, lam, CH2)
        with pytest.raises(ValueError, match="finite"):
            achieved_power(0, mu, lam, CH2)


def test_window_overflowing_to_inf_raises_without_a_warning():
    """A positive price so small that user 0's window end overflows to inf is
    refused before any panel edge is computed from it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="integration window must be finite"):
            achieved_power(0, (0.6, 0.4), [1e-320, 0.1], TestRateSettings.CHANNEL)
        with pytest.raises(ValueError, match="integration window must be finite"):
            rate_point((0.6, 0.4), [1e-320, 0.1], TestRateSettings.CHANNEL)
