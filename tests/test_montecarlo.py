import dataclasses
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from macfade import montecarlo
from macfade.boundary import rate_point
from macfade.fading import ExponentialGain, PiecewiseLinearEmpirical, UniformGain
from macfade.kernel import ChannelConfig, LambdaVector, RateAwardVector, UserSpec, win_probability
from macfade.montecarlo import _allocate_chunk, _run_stream, estimate, state_chunk
from macfade.solver import solve_lambda
from oracles import (
    FadingState,
    WinnerPartition,
    per_state_allocation,
    reference_allocate_chunk,
    reference_closed_form_chunk,
    reference_estimate,
    reference_estimate_win_probability,
    reference_state_chunk,
    utility,
    winner_partition,
)


def expo_channel(n_users, sigma2=1.0, means=None, pbars=None):
    means = means or [1.0] * n_users
    pbars = pbars or [1.0] * n_users
    return ChannelConfig(sigma2, tuple(
        UserSpec(ExponentialGain(m), p) for m, p in zip(means, pbars)))


CH1 = expo_channel(1)
CH2 = expo_channel(2)
CH3 = ChannelConfig(0.7, (
    UserSpec(ExponentialGain(0.5), 1.0),
    UserSpec(UniformGain(0.2, 3.0), 0.8),
    UserSpec(ExponentialGain(2.0), 1.2),
))
MU3 = RateAwardVector((0.5, 0.2, 0.3))
LAM3 = LambdaVector((0.11, 0.04, 0.07))
EMPIRICAL = PiecewiseLinearEmpirical((0.1, 0.5, 1.0, 2.0, 4.0), (0.0, 0.2, 0.5, 0.85, 1.0))
CH4 = ChannelConfig(1.0, (
    UserSpec(ExponentialGain(0.5), 1.0),
    UserSpec(UniformGain(0.2, 3.0), 1.0),
    UserSpec(EMPIRICAL, 1.0),
    UserSpec(ExponentialGain(2.0), 1.0),
))
MU4 = RateAwardVector((0.4, 0.3, 0.2, 0.1))
LAM4 = LambdaVector((0.1, 0.06, 0.04, 0.02))
# users 0 and 1 have equal weights: parallel utility lines
CH_EQ = ChannelConfig(1.0, (
    UserSpec(ExponentialGain(1.0), 1.0),
    UserSpec(UniformGain(0.3, 2.5), 1.0),
    UserSpec(ExponentialGain(1.5), 1.0),
))
MU_EQ = RateAwardVector((0.35, 0.35, 0.3))
LAM_EQ = LambdaVector((0.1, 0.08, 0.06))


class ZeroHeavyGain(UniformGain):
    """Uniform law whose quantile is an exact zero below p = 0.05 (tests only)."""

    def _quantile_raw(self, arr):
        return np.where(arr < 0.05, 0.0, super()._quantile_raw(arr))


class DenormalHeavyGain(ExponentialGain):
    """Exponential law whose quantile is the denormal 5e-324 below p = 0.05 (tests only)."""

    def _quantile_raw(self, arr):
        return np.where(arr < 0.05, 5e-324, super()._quantile_raw(arr))


# two users draw zeros, so the order fresh uniforms are handed out in shows
CH_ZERO = ChannelConfig(1.0, (
    UserSpec(ZeroHeavyGain(0.0, 2.0), 1.0),
    UserSpec(ExponentialGain(1.0), 1.0),
    UserSpec(ZeroHeavyGain(0.0, 3.0), 1.0),
))


class TestUtility:
    def test_arithmetic_example(self):
        assert utility(0, 0.0, 2.0, (0.5, 0.5), (1.0, 1.0), 1.0) == -0.25

    def test_positivity_root(self):
        mu, lam, h, sigma2 = (0.6, 0.4), (0.3, 0.2), 1.7, 0.9
        z_root = mu[0] * h / (2.0 * lam[0]) - sigma2
        assert utility(0, z_root, h, mu, lam, sigma2) == pytest.approx(0.0, abs=1e-15)

    def test_strictly_decreasing_in_z(self):
        zs = np.linspace(0.0, 5.0, 50)
        values = [utility(0, z, 1.3, (0.7, 0.3), (0.2, 0.1), 0.8) for z in zs]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestWinnerPartition:
    def test_dominant_user_single_interval(self):
        part = winner_partition(FadingState((1.0, 1.0)), (0.5, 0.5), (1.0, 2.0), 0.1)
        assert len(part.intervals) == 1
        lo, hi, winner = part.intervals[0]
        assert (lo, winner) == (0.0, 0)
        assert hi == pytest.approx(0.15, rel=1e-12)

    def test_single_user_positivity_root(self):
        part = winner_partition(FadingState((4.0,)), (1.0,), (1.0,), 1.0)
        assert part.intervals == ((0.0, 1.0, 0),)

    def test_everyone_priced_out(self):
        part = winner_partition(FadingState((0.1, 0.1)), (0.5, 0.5), (5.0, 5.0), 1.0)
        assert part.intervals == ()

    def test_tie_flagged_lowest_index_wins(self):
        part = winner_partition(FadingState((1.0, 1.0)), (0.5, 0.5), (1.0, 1.0), 0.1)
        assert part.tie_flagged
        assert part.intervals != ()
        assert all(w == 0 for _, _, w in part.intervals)

    @pytest.mark.parametrize("channel,mu,lam", [
        (CH2, RateAwardVector((0.7, 0.3)), LambdaVector((0.126, 0.0454))),
        (CH3, MU3, LAM3),
    ])
    def test_partition_soundness(self, channel, mu, lam):
        rng = np.random.default_rng(77)
        mu_arr = mu.as_array()
        lam_arr = lam.as_array()
        n_states = 10_000
        gains_by_user = [u.fading.quantile(rng.random(n_states)) for u in channel.users]
        gains = np.column_stack(gains_by_user)
        checked_inside = 0
        for row in range(n_states):
            state = FadingState(tuple(gains[row]))
            h = np.asarray(state.h)
            part = winner_partition(state, mu, lam, channel.sigma2)
            z_top = 0.0
            for lo, hi, winner in part.intervals:
                zs = rng.uniform(lo, hi, size=100)
                u = mu_arr / (2.0 * (channel.sigma2 + zs[:, None])) - lam_arr / h
                best = np.argmax(u, axis=1)
                assert np.all(best == winner)
                assert np.all(u[np.arange(100), best] > 0.0)
                checked_inside += 100
                z_top = hi
            # beyond the last interval no user holds a strictly positive max
            for z in rng.uniform(z_top + 1e-9, z_top + 2.0, size=5):
                u = mu_arr / (2.0 * (channel.sigma2 + z)) - lam_arr / h
                assert u.max() <= 1e-12
        assert checked_inside > 0

    def test_intervals_sorted_and_disjoint(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            state = FadingState(tuple(rng.uniform(0.05, 4.0, size=3)))
            part = winner_partition(state, MU3, LAM3, CH3.sigma2)
            for (a_lo, a_hi, _), (b_lo, b_hi, _) in zip(part.intervals, part.intervals[1:]):
                assert a_hi <= b_lo
                assert a_lo < a_hi and b_lo < b_hi


class TestPerStateAllocation:
    def test_closed_form_example(self):
        part = WinnerPartition(((0.0, 0.15, 0),))
        rates, powers = per_state_allocation(part, FadingState((1.0, 999.0)), 0.1)
        assert rates[0] == pytest.approx(0.5 * math.log(2.5), rel=1e-12)
        assert powers[0] == pytest.approx(0.15, rel=1e-15)
        assert rates[1] == 0.0 and powers[1] == 0.0

    def test_empty_partition(self):
        rates, powers = per_state_allocation(WinnerPartition(()), FadingState((1.0,)), 1.0)
        assert rates == (0.0,) and powers == (0.0,)

    def test_full_span_single_user_is_shannon_rate(self):
        received = 3.7
        sigma2 = 0.6
        part = WinnerPartition(((0.0, received, 0),))
        rates, powers = per_state_allocation(part, FadingState((1.9,)), sigma2)
        assert rates[0] == pytest.approx(0.5 * math.log(1.0 + received / sigma2), rel=1e-12)
        assert powers[0] == pytest.approx(received / 1.9, rel=1e-12)

    def test_accounting_identity_received_power_conserved(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            state = FadingState(tuple(rng.uniform(0.05, 4.0, size=3)))
            part = winner_partition(state, MU3, LAM3, CH3.sigma2)
            _, powers = per_state_allocation(part, state, CH3.sigma2)
            received = sum(p * h for p, h in zip(powers, state.h))
            measure = sum(hi - lo for lo, hi, _ in part.intervals)
            assert received == pytest.approx(measure, rel=1e-12, abs=1e-15)

    def test_rates_reconstructed_from_interval_endpoints(self):
        # successive-decoding consistency: each interval's rate equals the
        # log-ratio Shannon increment of its received-power slab
        rng = np.random.default_rng(29)
        for _ in range(300):
            state = FadingState(tuple(rng.uniform(0.05, 4.0, size=3)))
            part = winner_partition(state, MU3, LAM3, CH3.sigma2)
            rates, _ = per_state_allocation(part, state, CH3.sigma2)
            rebuilt = [0.0] * 3
            for lo, hi, winner in part.intervals:
                slab = hi - lo
                rebuilt[winner] += 0.5 * math.log1p(slab / (CH3.sigma2 + lo))
            for a, b in zip(rates, rebuilt):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def scalar_allocation(gains, mu, lam, sigma2):
    """Rates and powers (n, m) from the scalar partition, one state at a time."""
    rates = np.empty_like(gains)
    powers = np.empty_like(gains)
    for row, h in enumerate(gains):
        state = FadingState(tuple(h))
        rates[row], powers[row] = per_state_allocation(
            winner_partition(state, mu, lam, sigma2), state, sigma2)
    return rates, powers


class TestAllocateChunk:
    @pytest.mark.parametrize("sigma2", [0.1, 1.0])
    @pytest.mark.parametrize("channel,mu,lam", [
        (CH2, RateAwardVector((0.7, 0.3)), LambdaVector((0.126, 0.0454))),
        (CH3, MU3, LAM3),
        (CH4, MU4, LAM4),
        (CH_EQ, MU_EQ, LAM_EQ),
    ], ids=["ch2", "ch3", "ch4", "equal-mu"])
    def test_equals_scalar_oracle_and_sort_kernel(self, channel, mu, lam, sigma2):
        channel = dataclasses.replace(channel, sigma2=sigma2)
        gains = np.concatenate([state_chunk(channel, 17, j) for j in range(13)])[:50_000]
        mu_arr = mu.as_array()
        lam_arr = lam.as_array()
        rates, powers = _allocate_chunk(gains, mu_arr, lam_arr, sigma2)
        # every user both wins and loses somewhere in the sample
        assert np.all(np.any(powers > 0.0, axis=0)) and np.all(np.any(powers == 0.0, axis=0))
        for ref_rates, ref_powers in (scalar_allocation(gains, mu_arr, lam_arr, sigma2),
                                      reference_allocate_chunk(gains, mu_arr, lam_arr, sigma2)):
            same = np.all(rates == ref_rates, axis=1) & np.all(powers == ref_powers, axis=1)
            assert np.all(same), f"first differing row {int(np.argmin(same))}"

    @pytest.mark.parametrize("sigma2", [0.125, 0.1, 1.0])
    @pytest.mark.parametrize("mu,lam", [
        # states with equal gains hold exact ties between users 0 and 1
        ((0.5, 0.5, 0.25), (0.25, 0.25, 0.125)),
        # states with gains in ratio 1:2 hold d == 0, the larger weight last
        ((0.25, 0.5, 0.5), (0.125, 0.25, 0.25)),
        # d == 0 in some states for each pair
        ((0.5, 0.25, 0.75), (0.25, 0.125, 0.375)),
        # equal gains put three lines through one point
        ((0.75, 0.5, 0.25), (0.3125, 0.1875, 0.0625)),
        ((0.25, 0.5, 0.75), (0.0625, 0.1875, 0.3125)),
        # every user priced out
        ((0.5, 0.25, 0.125), (8.0, 8.0, 8.0)),
    ])
    def test_degenerate_grid_states(self, mu, lam, sigma2):
        levels = (0.25, 0.5, 1.0, 2.0)
        gains = np.array(list(itertools.product(levels, repeat=3)))
        mu_arr = np.array(mu)
        lam_arr = np.array(lam)
        rates, powers = _allocate_chunk(gains, mu_arr, lam_arr, sigma2)
        for ref_rates, ref_powers in (scalar_allocation(gains, mu_arr, lam_arr, sigma2),
                                      reference_allocate_chunk(gains, mu_arr, lam_arr, sigma2)):
            assert np.array_equal(powers > 0.0, ref_powers > 0.0)  # the same winners
            np.testing.assert_allclose(rates, ref_rates, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(powers, ref_powers, rtol=1e-12, atol=0.0)

    def test_degenerate_single_user(self):
        gains = np.array([[0.25], [0.5], [1.0], [2.0]])
        rates, powers = _allocate_chunk(gains, np.array([1.0]), np.array([1.0]), 0.5)
        ref_rates, ref_powers = scalar_allocation(gains, np.array([1.0]), np.array([1.0]), 0.5)
        assert np.array_equal(powers > 0.0, [[False], [False], [False], [True]])  # root 0 at h = 1
        np.testing.assert_allclose(rates, ref_rates, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(powers, ref_powers, rtol=1e-12, atol=0.0)


class TestAllocateEdgeStates:
    LAM = np.array((0.126, 0.0454))
    GAINS = np.array([
        [1e-300, 1.0], [1.0, 1e-300], [1e-300, 1e-17], [1e-17, 1e-17], [1e-17, 2.0],
        [5e-324, 1.0], [1.0, 5e-324], [5e-324, 1e-17], [1e-300, 5e-324],
        [0.005, 0.01], [1.0, 2.0], [4.0, 0.2],
    ])

    def allocations(self, gains, mu_arr, sigma2):
        yield _allocate_chunk(gains, mu_arr, self.LAM, sigma2)
        yield scalar_allocation(gains, mu_arr, self.LAM, sigma2)
        yield reference_closed_form_chunk(gains, mu_arr, self.LAM, sigma2)

    @pytest.mark.parametrize("sigma2", [1.0, 0.1])
    @pytest.mark.parametrize("mu", [(0.7, 0.3), (0.3, 0.7)])
    def test_vanishing_gains_and_priced_out_states(self, mu, sigma2):
        # roots of gains 1e-300 and 1e-17 round to -sigma2 (a lost interval then
        # collapses to [-sigma2, -sigma2] unless it is floored), the cost lam/h of
        # the denormal 5e-324 overflows to inf, and [0.005, 0.01] prices both
        # users out; each user wins in one of the last two rows
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing but that overflow may warn
            (rates, powers), *refs = self.allocations(self.GAINS, np.array(mu), sigma2)
        assert np.all(np.isfinite(rates)) and np.all(np.isfinite(powers))
        assert np.all(powers[-3] == 0.0) and np.all(np.any(powers > 0.0, axis=0))
        for ref_rates, ref_powers in refs:
            assert np.all(rates == ref_rates) and np.all(powers == ref_powers)

    @pytest.mark.parametrize("mu", [(0.7, 0.3), (0.3, 0.7)])
    def test_two_overflowing_costs_give_a_nan_level(self, mu):
        # inf - inf makes the pair's crossing level NaN; it must still knock out
        gains = np.array([[5e-324, 5e-324], [5e-324, 1e-300], [1.0, 2.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            (rates, powers), *refs = self.allocations(gains, np.array(mu), 1.0)
        assert np.all(rates[:2] == 0.0) and np.all(powers[:2] == 0.0)
        for ref_rates, ref_powers in refs:
            assert np.all(rates == ref_rates) and np.all(powers == ref_powers)


    @pytest.mark.parametrize("threads", [1, 2])
    def test_estimate_on_denormal_gains_raises_no_warning(self, threads):
        # lam/h overflows to inf on a denormal gain, and a state where both
        # users draw one (about 125 of these 50,000) forms inf - inf
        channel = ChannelConfig(1.0, tuple(UserSpec(DenormalHeavyGain(1.0), 1.0)
                                           for _ in range(2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate(channel, (0.7, 0.3), self.LAM, 50_000, 3, threads=threads)
        assert np.all(np.isfinite(result.rates)) and np.all(np.isfinite(result.powers))
        assert all(p > 0.0 for p in result.powers)


class TestEstimate:
    def test_single_sample_equals_per_state_allocation(self):
        for seed in (0, 3, 11, 2024):
            for channel, mu, lam in ((CH2, RateAwardVector((0.7, 0.3)),
                                      LambdaVector((0.126, 0.0454))),
                                     (CH3, MU3, LAM3)):
                result = estimate(channel, mu, lam, 1, seed)
                gains = state_chunk(channel, seed, 0)[0]
                state = FadingState(tuple(gains))
                part = winner_partition(state, mu, lam, channel.sigma2)
                rates, powers = per_state_allocation(part, state, channel.sigma2)
                assert result.rates == rates
                assert result.powers == powers

    def test_thread_count_never_changes_results(self):
        mu = RateAwardVector((0.7, 0.3))
        lam = LambdaVector((0.126, 0.0454))
        serial = estimate(CH2, mu, lam, 50_000, 42, threads=1)
        threaded = estimate(CH2, mu, lam, 50_000, 42, threads=4)
        assert serial == threaded
        for channel, mu, lam in ((CH3, MU3, LAM3), (CH4, MU4, LAM4)):
            results = [estimate(channel, mu, lam, 30_001, 7, threads=t) for t in (1, 2, 3)]
            assert results[0] == results[1] == results[2]

    def test_workers_write_disjoint_partials_under_fast_switching(self):
        # more threads than cores, switching every microsecond: the bytes must
        # still be the serial ones
        serial = estimate(CH3, MU3, LAM3, 30_001, 9)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = [estimate(CH3, MU3, LAM3, 30_001, 9, threads=5) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert all(result == serial for result in threaded)

    @pytest.mark.parametrize("threads", [0, -3, 2.5])
    def test_bad_thread_count_raises(self, threads):
        with pytest.raises(ValueError, match="threads"):
            estimate(CH2, RateAwardVector((0.7, 0.3)), LambdaVector((0.126, 0.0454)),
                     100, 1, threads=threads)

    @pytest.mark.parametrize("n_samples", [2.5, 5000.0, 0])
    def test_bad_sample_count_raises(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            estimate(CH2, RateAwardVector((0.7, 0.3)), LambdaVector((0.126, 0.0454)),
                     n_samples, 1)

    @pytest.mark.parametrize("seed", [1.5, -1, 1 << 128])
    def test_bad_seed_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            estimate(CH2, RateAwardVector((0.7, 0.3)), LambdaVector((0.126, 0.0454)),
                     5000, seed)

    def test_numpy_integers_are_accepted(self):
        mu = RateAwardVector((0.7, 0.3))
        lam = LambdaVector((0.126, 0.0454))
        result = estimate(CH2, mu, lam, np.int64(5000), np.int64(1), threads=np.int64(2))
        assert result == estimate(CH2, mu, lam, 5000, 1)
        assert type(result.n_samples) is int

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_block_per_run(self, threads):
        # a 2-user run's two-chunk block is 512 KB, whatever ``threads`` says; a
        # per-task buffer that every chunk is copied into (about 1 MB) shows as a
        # higher peak
        mu = RateAwardVector((0.7, 0.3))
        lam = LambdaVector((0.126, 0.0454))
        estimate(CH2, mu, lam, 5000, 1, threads=threads)  # first-call caches
        tracemalloc.start()
        try:
            estimate(CH2, mu, lam, 1 << 18, 1, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 700 * 1024

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_block_per_run_three_users(self, threads):
        # a 3-user run's block is 768 KB and the peak about 950 KB;
        # a bool-to-float product in the pair loop (numpy's cast buffer and the
        # product, 64 KB each) lifts it past 1,100 KB
        estimate(CH3, MU3, LAM3, 5000, 1, threads=threads)  # first-call caches
        tracemalloc.start()
        try:
            estimate(CH3, MU3, LAM3, 1 << 18, 1, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 1024

    def test_one_state_chunk_call_per_chunk(self, monkeypatch):
        # the module global is the per-chunk hook that the benchmark's tracer wraps
        mu = RateAwardVector((0.7, 0.3))
        lam = LambdaVector((0.126, 0.0454))
        expected = estimate(CH2, mu, lam, 10**6, 1)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return state_chunk(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "state_chunk", counting)
        assert estimate(CH2, mu, lam, 10**6, 1) == expected
        assert calls == list(range(245))

    def test_partial_final_chunk(self):
        mu = RateAwardVector((0.7, 0.3))
        lam = LambdaVector((0.126, 0.0454))
        result = estimate(CH2, mu, lam, 5000, 8)
        assert result.n_samples == 5000
        assert all(se > 0.0 for se in result.rate_se)

    def test_means_match_quadrature_and_budgets(self):
        mu = RateAwardVector((0.7, 0.3))
        solution = solve_lambda(mu, CH2)
        rates = rate_point(mu, solution.lam, CH2)
        mc = estimate(CH2, mu, solution.lam, 200_000, 321)
        for i in range(2):
            assert abs(mc.rates[i] - rates[i]) <= 3.0 * mc.rate_se[i] + 1e-8
            assert abs(mc.powers[i] - 1.0) <= 3.0 * mc.power_se[i] + 1e-6


def assert_same_estimate(result, expected):
    """Equal with ==, the NaN standard errors of a one-state run included."""
    assert result.n_samples == expected.n_samples
    assert result.rates == expected.rates and result.powers == expected.powers
    np.testing.assert_array_equal(result.rate_se, expected.rate_se)
    np.testing.assert_array_equal(result.power_se, expected.power_se)


MC_CASES = {
    "exp1": (CH1, (1.0,), (0.3,)),
    "empirical1": (ChannelConfig(0.5, (UserSpec(EMPIRICAL, 1.0),)), (1.0,), (0.4,)),
    "exp2": (CH2, RateAwardVector((0.7, 0.3)), LambdaVector((0.126, 0.0454))),
    "mixed2": (ChannelConfig(1.0, (UserSpec(ExponentialGain(1.0), 1.0),
                                   UserSpec(UniformGain(0.3, 2.5), 1.0))),
               RateAwardVector((0.3, 0.7)), LambdaVector((0.05, 0.2))),
    "ch3": (CH3, MU3, LAM3),
    "ch4": (CH4, MU4, LAM4),
    "equal-mu": (CH_EQ, MU_EQ, LAM_EQ),
}


class TestReferenceEstimator:
    """The two-chunk block estimator against the one-chunk-at-a-time reference."""

    # 8191 ends the one two-chunk pass a state short; 8193 and 3 * 8192 + 1 put one state
    # into a last pass after one and three full passes
    @pytest.mark.parametrize("n_samples", [1, 4095, 4096, 4097, 8191, 8193, 3 * 8192 + 1,
                                           30_001, 1 << 18])
    @pytest.mark.parametrize("case", MC_CASES)
    def test_equals_reference_bit_for_bit(self, case, n_samples):
        channel, mu, lam = MC_CASES[case]
        expected = reference_estimate(channel, mu, lam, n_samples, 11)
        for threads in (1, 2, 3):
            assert_same_estimate(estimate(channel, mu, lam, n_samples, 11, threads=threads),
                                 expected)

    def test_zero_gains_are_redrawn(self):
        law = CH_ZERO.users[0].fading
        first_draw = np.random.Generator(np.random.Philox(key=5, counter=0)).random((4096, 3))
        assert np.any(law.quantile(first_draw[:, 0]) == 0.0)  # the redraw path runs
        for index in range(3):
            gains = state_chunk(CH_ZERO, 5, index)
            assert np.all(gains > 0.0)
            assert np.array_equal(gains, reference_state_chunk(CH_ZERO, 5, index))
        mu, lam = (0.5, 0.3, 0.2), (0.1, 0.08, 0.05)
        for n_samples in (4097, 30_001):
            expected = reference_estimate(CH_ZERO, mu, lam, n_samples, 5)
            for threads in (1, 2):
                assert_same_estimate(estimate(CH_ZERO, mu, lam, n_samples, 5, threads=threads),
                                     expected)


class TestEstimateWinProbability:
    def test_single_user_closed_form(self):
        p, se = reference_estimate_win_probability(CH1, 0, 0.0, (1.0,), (1.0,), 400_000, 7)
        assert abs(p - math.exp(-2.0)) <= 3.0 * se

    def test_far_interference_level_never_wins(self):
        p, se = reference_estimate_win_probability(CH1, 0, 50.0, (1.0,), (1.0,), 50_000, 7)
        assert p == 0.0

    def test_events_disjoint(self):
        mu = RateAwardVector((0.7, 0.3))
        lam = LambdaVector((0.126, 0.0454))
        for z in (0.0, 0.8, 2.0):
            total = sum(reference_estimate_win_probability(CH2, i, z, mu, lam,
                                                           100_000, 55)[0]
                        for i in range(2))
            assert total <= 1.0

    def test_matches_quadrature_on_grid(self):
        mu = RateAwardVector((0.7, 0.3))
        lam = LambdaVector((0.126, 0.0454))
        for z in np.linspace(0.0, 2.5, 6):
            for i in range(2):
                p_mc, se = reference_estimate_win_probability(CH2, i, float(z), mu, lam,
                                                              200_000, 99)
                p = win_probability(i, float(z), mu, lam, CH2)
                scale = math.sqrt(max(p_mc * (1.0 - p_mc), p * (1.0 - p)) / 200_000)
                assert abs(p_mc - p) <= 3.0 * scale + 1e-9


class TestStateChunk:
    def test_deterministic_per_chunk(self):
        a = state_chunk(CH3, 123, 5)
        b = state_chunk(CH3, 123, 5)
        assert np.array_equal(a, b)
        c = state_chunk(CH3, 123, 6)
        assert not np.array_equal(a, c)

    def test_gains_positive_and_lawful(self):
        gains = state_chunk(CH2, 9, 0)
        assert gains.shape == (4096, 2)
        assert np.all(gains > 0.0)
        # column marginals look exponential: mean within 5 standard errors
        assert abs(float(gains[:, 0].mean()) - 1.0) <= 5.0 / math.sqrt(4096)

    @pytest.mark.parametrize("channel,seed", [(CH3, 123), (CH_ZERO, 5)], ids=["ch3", "redraw"])
    def test_out_holds_the_transposed_gains(self, channel, seed):
        # out is one chunk's row of a two-chunk block, as the estimator passes it
        block = np.full((4, channel.n_users, 2, 4096), np.nan)
        out = block[2, :, 1]
        for index in range(3):  # chunk 0 of CH_ZERO's seed 5 redraws zeros
            result = state_chunk(channel, seed, index, out=out)
            assert np.array_equal(out, state_chunk(channel, seed, index).T)
            assert np.shares_memory(result, out) and np.array_equal(result, out.T)
        block[2, :, 1] = np.nan
        assert np.all(np.isnan(block))  # nothing outside out was written

    @pytest.mark.parametrize("channel,seed", [(CH3, 123), (CH_ZERO, 5)], ids=["ch3", "redraw"])
    def test_one_seeked_stream_equals_a_fresh_generator_per_chunk(self, channel, seed):
        # one run's generator and uniform scratch, as estimate passes them, moved from
        # chunk to chunk across both 64-bit words of the counter's top half
        m = channel.n_users
        block = np.empty((4, m, 2, 4096))
        run = _run_stream(seed), block[1].reshape(2, 4096, m)[0]
        for c, index in enumerate([0, 1, 2**64 - 1, 2**64, 2**64 + 3, 2**128 - 1]):
            result = state_chunk(channel, seed, index, out=block[2, :, c % 2], _run=run)
            assert np.array_equal(result, reference_state_chunk(channel, seed, index)), index

    def test_numpy_integer_index_is_the_same_chunk(self):
        assert np.array_equal(state_chunk(CH2, np.int64(9), np.int64(3)), state_chunk(CH2, 9, 3))
        assert not np.array_equal(state_chunk(CH2, 9, 3), state_chunk(CH2, 9, 0))

    @pytest.mark.parametrize("name,seed,index", [
        ("seed", 1.9, 0), ("seed", True, 0), ("seed", -1, 0), ("seed", 1 << 128, 0),
        ("chunk_index", 1, 2.0), ("chunk_index", 1, True), ("chunk_index", 1, -1),
        ("chunk_index", 1, 1 << 128),
    ], ids=repr)
    def test_bad_seed_or_index_raises(self, name, seed, index):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            state_chunk(CH2, seed, index)

    def test_fading_state_validation(self):
        with pytest.raises(ValueError):
            FadingState((1.0, 0.0))
        with pytest.raises(ValueError):
            FadingState(())
