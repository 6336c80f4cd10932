import dataclasses
import math
import re

import numpy as np
import pytest

from macfade import solver
from macfade.fading import ExponentialGain, PiecewiseLinearEmpirical, UniformGain
from macfade.kernel import CdfMode, ChannelConfig, LambdaVector, RateAwardVector, UserSpec
from macfade.quadrature import _EVALS_PER_RULE, QuadratureError, integrate_or_raise
from macfade.solver import (
    SolverError,
    SolverSettings,
    _solve,
    achieved_power,
    solve_lambda,
)

from oracles import wf_power, wf_solve_lambda


def expo_channel(n_users, sigma2=1.0, means=None, pbars=None):
    means = means or [1.0] * n_users
    pbars = pbars or [1.0] * n_users
    return ChannelConfig(sigma2, tuple(
        UserSpec(ExponentialGain(m), p) for m, p in zip(means, pbars)))


CH1 = expo_channel(1)
CH2 = expo_channel(2)
MU1 = RateAwardVector((1.0,))


class TestAchievedPower:
    def test_single_user_water_filling_value(self):
        # frozen from the water-filling oracle E[(1/(2*0.25) - 1/h)^+], h ~ Exp(1)
        frozen = 0.6532877246
        assert abs(wf_power(0.25, 1.0, 1.0) - frozen) <= 1e-9
        value = achieved_power(0, MU1, LambdaVector((0.25,)), CH1)
        assert value == pytest.approx(frozen, abs=1e-7)

    def test_vanishes_at_large_price(self):
        assert achieved_power(0, MU1, LambdaVector((1e6,)), CH1) == 0.0

    def test_symmetric_users_spend_equally(self):
        mu = RateAwardVector((0.5, 0.5))
        lam = LambdaVector((0.08, 0.08))
        tol = 1e-8
        p0 = achieved_power(0, mu, lam, CH2, tol=tol)
        p1 = achieved_power(1, mu, lam, CH2, tol=tol)
        assert abs(p0 - p1) <= 2.0 * tol

    def test_strictly_decreasing_in_own_price(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            mu1 = float(rng.uniform(0.25, 0.75))
            mu = RateAwardVector((mu1, 1.0 - mu1))
            base = rng.uniform(0.05, 0.6, size=2)
            step = 1.02
            for i in range(2):
                lam_lo = base.copy()
                lam_hi = base.copy()
                lam_hi[i] *= step
                p_lo = achieved_power(i, mu, LambdaVector(tuple(lam_lo)), CH2)
                p_hi = achieved_power(i, mu, LambdaVector(tuple(lam_hi)), CH2)
                assert p_hi < p_lo


class TestSolveLambda:
    def test_single_user_matches_water_filling_oracle(self):
        lam_star = wf_solve_lambda(1.0, 1.0, 1.0)
        result = solve_lambda(MU1, CH1)
        assert result.lam[0] == pytest.approx(lam_star, rel=1e-5)
        assert abs(result.certified_residuals[0]) <= 1e-6

    def test_symmetric_two_user_prices_coincide(self):
        result = solve_lambda(RateAwardVector((0.5, 0.5)), CH2)
        assert result.lam[0] == pytest.approx(result.lam[1], rel=1e-6)

    def test_residual_certificate(self):
        result = solve_lambda(RateAwardVector((0.7, 0.3)), CH2)
        for res in result.certified_residuals:
            assert abs(res) <= 1e-6
        for i in range(2):
            assert result.achieved[i] == pytest.approx(1.0, rel=2e-6)

    def test_tiny_power_budget_raises_price_and_rate_vanishes(self):
        from macfade.boundary import rate_point

        small = expo_channel(1, pbars=[1e-6])
        result_small = solve_lambda(MU1, small)
        result_unit = solve_lambda(MU1, CH1)
        # price grows only logarithmically for exponential tails
        assert result_small.lam[0] > 10.0 * result_unit.lam[0]
        assert abs(result_small.certified_residuals[0]) <= 1e-6
        rate = rate_point(MU1, result_small.lam, small)[0]
        assert rate < 1e-2

    def test_uniqueness_from_different_brackets(self):
        mu = RateAwardVector((0.7, 0.3))
        a = solve_lambda(mu, CH2, initial_lambda=(0.5, 0.5))
        b = solve_lambda(mu, CH2, initial_lambda=(0.01, 0.01))
        for x, y in zip(a.lam.lam, b.lam.lam):
            assert abs(x - y) / x <= 10.0 * 1e-6

    def test_mixed_distributions(self):
        channel = ChannelConfig(0.8, (
            UserSpec(ExponentialGain(1.5), 0.7),
            UserSpec(UniformGain(0.3, 2.5), 1.2),
        ))
        result = solve_lambda(RateAwardVector((0.4, 0.6)), channel)
        for i, res in enumerate(result.certified_residuals):
            assert abs(res) <= 1e-6, f"user {i} residual {res}"

    def test_non_convergence_carries_iterate(self):
        settings = SolverSettings(max_outer_iters=1)
        with pytest.raises(SolverError) as err:
            solve_lambda(RateAwardVector((0.7, 0.3)), CH2, settings,
                         initial_lambda=(1e-3, 1e3))
        assert re.search(r"^no convergence in 1 Newton steps at lam=\(\S+, \S+\); "
                         r"last residuals \(\S+, \S+\)$", str(err.value))

    def test_naive_mode_solves_but_to_different_prices(self):
        mu = RateAwardVector((0.7, 0.3))
        corrected = solve_lambda(mu, CH2)
        naive = solve_lambda(mu, CH2, SolverSettings(mode=CdfMode.NAIVE_ZERO),
                             initial_lambda=corrected.lam)
        assert abs(naive.lam[0] - corrected.lam[0]) / corrected.lam[0] > 1e-3
        for res in naive.certified_residuals:
            assert abs(res) <= 1e-6

    def test_naive_mode_on_a_kinked_law(self):
        channel = ChannelConfig(1.0, (
            UserSpec(ExponentialGain(1.0), 1.0),
            UserSpec(UniformGain(0.3, 2.5), 1.0),
        ))
        result = solve_lambda(RateAwardVector((0.7, 0.3)), channel,
                              SolverSettings(mode=CdfMode.NAIVE_ZERO))
        for i, res in enumerate(result.certified_residuals):
            assert abs(res) <= 1e-6, f"user {i} residual {res}"

    def test_start_where_every_user_spends_nothing(self):
        mu = RateAwardVector((0.7, 0.3))
        start = LambdaVector((1e3, 1e3))
        assert all(achieved_power(i, mu, start, CH2) == 0.0 for i in range(2))
        result = solve_lambda(mu, CH2, initial_lambda=start)
        for res in result.certified_residuals:
            assert abs(res) <= 1e-6
        reference = solve_lambda(mu, CH2)
        for x, y in zip(result.lam.lam, reference.lam.lam):
            assert abs(x - y) / y <= 10.0 * 1e-6

    def test_warm_started_point_stays_within_evaluation_bound(self):
        # acceptance-4 channel, neighbouring points of simplex_grid(3, 7)
        channel = expo_channel(3, means=[0.5, 1.0, 2.0])
        cold = solve_lambda(RateAwardVector((1 / 7, 1 / 7, 5 / 7)), channel)
        warm = solve_lambda(RateAwardVector((1 / 7, 2 / 7, 4 / 7)), channel,
                            initial_lambda=cold.lam)
        assert warm.power_evals <= 80
        for res in warm.certified_residuals:
            assert abs(res) <= 1e-6

    def test_result_carries_a_square_jacobian_or_none(self):
        mu = RateAwardVector((0.7, 0.3))
        solved = solve_lambda(mu, CH2)
        jac = solved.jacobian
        assert isinstance(jac, tuple) and len(jac) == 2
        assert all(isinstance(row, tuple) and len(row) == 2 for row in jac)
        assert all(math.isfinite(x) for row in jac for x in row)
        # no Newton step, so no matrix was measured
        again = solve_lambda(mu, CH2, initial_lambda=solved.lam)
        assert again.sweeps == 0 and again.jacobian is None
        single = solve_lambda(MU1, CH1).jacobian
        assert len(single) == 1 and len(single[0]) == 1

    @pytest.mark.parametrize("jac", [
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [1.0, 1.0],
        [[-1.0, 0.1], [0.1, math.nan]],
        [[-1.0, math.inf], [0.1, -1.0]],
        [[1.0], [1.0, 2.0]],
    ])
    def test_initial_jacobian_must_be_finite_and_square(self, jac):
        with pytest.raises(ValueError, match="initial_jacobian"):
            solve_lambda(RateAwardVector((0.7, 0.3)), CH2, initial_jacobian=jac)

    def test_negated_carried_jacobian_falls_back_to_the_one_user_slopes(self):
        neighbour = solve_lambda(RateAwardVector((0.6, 0.4)), CH2)
        mu = RateAwardVector((0.7, 0.3))
        wrong = -np.array(neighbour.jacobian)
        result = solve_lambda(mu, CH2, initial_lambda=neighbour.lam, initial_jacobian=wrong)
        # own-price entries are negative again: the matrix was reseeded
        assert result.jacobian[0][0] < 0.0 and result.jacobian[1][1] < 0.0
        for res in result.certified_residuals:
            assert abs(res) <= 1e-6
        reference = solve_lambda(mu, CH2)
        for x, y in zip(result.lam.lam, reference.lam.lam):
            assert abs(x - y) / y <= 10.0 * 1e-6

    def test_singular_carried_jacobian_falls_back_to_the_one_user_slopes(self):
        mu = RateAwardVector((0.6, 0.4))
        result = solve_lambda(mu, CH2, initial_lambda=(0.2, 0.2),
                              initial_jacobian=[[0.0, 0.0], [0.0, 0.0]])
        # no Newton step solves a zero matrix: it was reseeded
        assert result.jacobian[0][0] < 0.0 and result.jacobian[1][1] < 0.0
        for res in result.certified_residuals:
            assert abs(res) <= 1e-6
        reference = solve_lambda(mu, CH2)
        for x, y in zip(result.lam.lam, reference.lam.lam):
            assert abs(x - y) / y <= 10.0 * 1e-6

    def test_start_far_on_the_high_power_side(self):
        # every price 1e-4 on the acceptance-4 channel: the Broyden updates
        # once crawled here for 117 power integrals, and a forward difference
        # on a failed search took 66
        channel = expo_channel(3, means=[0.5, 1.0, 2.0])
        result = solve_lambda(RateAwardVector((0.5, 0.3, 0.2)), channel,
                              initial_lambda=(1e-4, 1e-4, 1e-4))
        assert result.power_evals <= 60
        for res in result.certified_residuals:
            assert abs(res) <= 1e-6

    # the first power integral, the first trial of the step on the one-user
    # slopes (taken when a negated carried Jacobian gives an uphill step), and
    # the first of the certificate pass
    @pytest.mark.parametrize("where", ["start", "reseed", "certificate"])
    def test_quadrature_failure_names_the_solver_stage(self, monkeypatch, where):
        mu = RateAwardVector((0.7, 0.3))
        solved = solve_lambda(mu, CH2)
        kwargs = {}
        if where == "reseed":
            neighbour = solve_lambda(RateAwardVector((0.6, 0.4)), CH2)
            kwargs = {"initial_lambda": neighbour.lam,
                      "initial_jacobian": -np.array(neighbour.jacobian)}
        fail_at = {"start": 1, "reseed": 3, "certificate": solved.power_evals + 1}[where]
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == fail_at:
                raise QuadratureError("outer power integral: quadrature did not converge",
                                      result="best")
            return achieved_power(*args)

        monkeypatch.setattr(solver, "achieved_power", failing)
        with pytest.raises(QuadratureError) as err:
            solve_lambda(mu, CH2, **kwargs)
        if where == "reseed":
            # the reseed costs no integral: the third is already a line-search
            # trial, which moves both prices
            start, trial = calls[0][2].as_array(), calls[-1][2].as_array()
            assert (trial != start).all()
        stage = (f"certificate pass after {solved.sweeps} Newton steps"
                 if where == "certificate" else "Newton step 1")
        last = "none yet" if where == "start" else r"\(-?\d[^,]*, -?\d[^,]*\)"
        assert re.fullmatch(r"outer power integral: quadrature did not converge; in the "
                            rf"solver's {stage} from lam=\([^)]*\), last residuals {last}",
                            str(err.value))
        assert err.value.result == "best"

    def test_naive_far_start_and_lopsided_weights_stay_within_bounds(self):
        # Halving along the price segment once cost these 171 and 56 power
        # integrals; the one-user slopes as the seed Jacobian (and, cold, the
        # one-user prices) bring them under the log-space halving's 99 and 47.
        channel = expo_channel(3, means=[0.5, 1.0, 2.0])
        far = solve_lambda(RateAwardVector((0.5, 0.3, 0.2)), channel,
                           SolverSettings(mode=CdfMode.NAIVE_ZERO),
                           initial_lambda=(1e-4, 1e-4, 1e-4))
        lopsided = solve_lambda(RateAwardVector((0.9, 0.05, 0.05)), channel)
        assert far.power_evals <= 99
        assert lopsided.power_evals <= 47
        for res in far.certified_residuals + lopsided.certified_residuals:
            assert abs(res) <= 1e-6

    @pytest.mark.parametrize("mode", list(CdfMode))
    def test_narrow_uniform_pair_stays_within_bound(self, mode):
        # Two nearly equal narrow users: near a solution each spends almost
        # nothing by turns.
        channel = ChannelConfig(1.0, (UserSpec(UniformGain(1.0, 1.001), 1.0),
                                      UserSpec(UniformGain(0.999, 1.0), 1.0)))
        result = solve_lambda(RateAwardVector((0.5, 0.5)), channel, SolverSettings(mode=mode))
        assert result.power_evals <= 100
        for res in result.certified_residuals:
            assert abs(res) <= 1e-6

    @pytest.mark.parametrize("mode", list(CdfMode))
    def test_start_far_on_the_low_power_side(self, mode):
        # every price 1e2: no user spends anything, so every slope is the
        # floor and the first step lowers every price by the cap
        channel = expo_channel(3, means=[0.5, 1.0, 2.0])
        result = solve_lambda(RateAwardVector((0.5, 0.3, 0.2)), channel,
                              SolverSettings(mode=mode), initial_lambda=(1e2, 1e2, 1e2))
        assert result.power_evals <= 80
        for res in result.certified_residuals:
            assert abs(res) <= 1e-6

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(power_rel_tol=0.0)
        with pytest.raises(ValueError):
            SolverSettings(max_outer_iters=0)
        for cap in (1.5, math.nan, True):
            with pytest.raises(ValueError, match=r"^max_outer_iters must be an integer, "
                                                 rf"not {re.escape(repr(cap))}$"):
                SolverSettings(max_outer_iters=cap)
        assert SolverSettings(max_outer_iters=np.int64(50)).max_outer_iters == 50
        for name in ("power_rel_tol", "quad_abs_tol", "tail_epsilon"):
            for value in (math.inf, math.nan, True, "1", None):
                with pytest.raises(ValueError, match=rf"^{name} must be a finite number, "
                                                     rf"not {re.escape(repr(value))}$"):
                    SolverSettings(**{name: value})
        with pytest.raises(ValueError):
            SolverSettings(quad_abs_tol=0.0)
        with pytest.raises(ValueError):
            SolverSettings(tail_epsilon=2.0)
        with pytest.raises(ValueError):
            SolverSettings(tail_epsilon=0.0)
        with pytest.raises(ValueError):
            solve_lambda(RateAwardVector((1.0,)), CH2)
        with pytest.raises(ValueError):
            solve_lambda(MU1, CH1, initial_lambda=(-1.0,))


def test_small_linear_solve_matches_lapack():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        for _ in range(50):
            a = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            expected = np.linalg.solve(a, b)
            assert np.allclose(_solve(a.copy(), b.copy()), expected, rtol=1e-10, atol=1e-12)
    assert _solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2)) is None
    assert _solve(np.zeros((3, 3)), np.ones(3)) is None


class TestLineSearch:
    """``_line_search`` against a fake residual map, with pbar = (2, 0.5)."""

    PBAR = [2.0, 0.5]
    X = np.log([0.3, 0.05])
    R = np.array([0.4, 0.2])  # both users overspend: lowering prices is uphill

    def search(self, step, answers):
        seen = []

        def residuals(x):
            seen.append(x)
            return answers(len(seen))

        return solver._line_search(residuals, self.X, self.R, np.array(step), self.PBAR), seen

    def test_uphill_step_fails_without_an_evaluation(self):
        (x_new, r_new), seen = self.search([-0.5, -1.0], lambda k: -self.R)
        assert x_new is None and r_new is None
        assert seen == []

    def test_full_step_evaluates_x_plus_step_exactly(self):
        step = np.array([1.3, -0.2])
        (x_new, r_new), seen = self.search(step, lambda k: 0.1 * self.R)
        assert len(seen) == 1
        assert np.array_equal(seen[0], self.X + step)
        assert np.array_equal(x_new, self.X + step)
        assert np.array_equal(r_new, 0.1 * self.R)

    def test_halved_points_lie_on_the_price_segment(self):
        # the far end lowers user 2's price 20-fold and raises user 1's
        lam = np.exp(self.X)
        step = np.array([0.7, -3.0])
        d = np.exp(self.X + step) - lam
        slope0 = -(d * self.PBAR) @ self.R
        assert slope0 < 0.0

        # overshoot (the slope turns to 3 |slope0|) until the fourth trial point
        def answers(k):
            return -3.0 * self.R if k < 4 else 0.5 * self.R

        (x_new, r_new), seen = self.search(step, answers)
        assert len(seen) == 4
        for k, x in enumerate(seen):
            assert (np.exp(x) > 0.0).all()
            assert np.allclose(np.exp(x), lam + d / 2.0 ** k, rtol=1e-13, atol=0.0)
        assert np.array_equal(x_new, seen[-1])
        assert np.array_equal(r_new, 0.5 * self.R)

    def test_search_gives_up_after_the_last_halving(self):
        (x_new, r_new), seen = self.search([0.7, -3.0], lambda k: -3.0 * self.R)
        assert x_new is None and r_new is None
        assert len(seen) == solver._MAX_HALVINGS + 1


class TestOneUserStart:
    """The cold start: each user's one-user water-filling price, and its slope."""

    def test_start_is_each_users_water_filling_price(self):
        means, pbars, sigma2 = [0.5, 1.0, 2.0], [1.0, 0.3, 2.0], 0.8
        channel = expo_channel(3, sigma2=sigma2, means=means, pbars=pbars)
        mu = RateAwardVector((0.2, 0.3, 0.5))
        x = solver._one_user_start(mu, channel, SolverSettings())
        for i in range(3):
            price = mu[i] * wf_solve_lambda(pbars[i], sigma2, means[i])
            assert abs(x[i] - math.log(price)) <= solver._START_TOL

    @pytest.mark.parametrize("mean, pbar, sigma2", [
        (1.0, 1.0, 1.0), (0.5, 1.0, 1.0), (2.0, 0.3, 0.8),
        (1.0, 1e-4, 1.0), (1.0, 1e3, 1.0), (1.0, 1.0, 1e-4), (1.0, 1.0, 1e3),
    ])
    def test_one_user_cold_solve_takes_at_most_one_newton_step(self, mean, pbar, sigma2):
        result = solve_lambda(MU1, expo_channel(1, sigma2, [mean], [pbar]))
        # the start's one power integral and at most one line-search trial:
        # the seeded slope is the exact Jacobian
        assert result.sweeps <= 1 and result.power_evals <= 2
        assert abs(result.certified_residuals[0]) <= 1e-6

    @pytest.mark.parametrize("pbar", [1e-4, 1.0, 1e3])
    @pytest.mark.parametrize("sigma2", [1e-4, 1.0, 1e3])
    def test_awkward_laws_and_scales_start(self, pbar, sigma2):
        empirical = PiecewiseLinearEmpirical((0.1, 0.5, 1.0, 2.0, 4.0), (0.0, 0.3, 0.6, 0.9, 1.0))
        laws = [UniformGain(1.0, 1.001), empirical, ExponentialGain(1.0)]
        channel = ChannelConfig(sigma2, tuple(UserSpec(law, pbar) for law in laws))
        mu = RateAwardVector((0.5, 0.3, 0.2))
        x = solver._one_user_start(mu, channel, SolverSettings())
        assert np.isfinite(x).all()
        # alone at its start price, each user spends close to its budget
        for i, law in enumerate(laws):
            alone = ChannelConfig(sigma2, (UserSpec(law, pbar),))
            spent = achieved_power(0, MU1, (math.exp(x[i]) / mu[i],), alone)
            assert spent == pytest.approx(pbar, rel=0.05)

    def test_start_failure_names_the_one_user_start(self, monkeypatch):
        def starved(req):
            if req.prefix(0).startswith("one-user start"):
                req = dataclasses.replace(req, abs_tol=1e-300, max_evals=_EVALS_PER_RULE)
            return integrate_or_raise(req)

        monkeypatch.setattr(solver, "integrate_or_raise", starved)
        with pytest.raises(QuadratureError, match=r"^one-user start of user 0: quadrature "
                                                  r"did not converge"):
            solve_lambda(RateAwardVector((0.7, 0.3)), CH2)
