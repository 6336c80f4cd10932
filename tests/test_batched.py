"""Batched integration: rows of one request never influence each other.

An array-of-levels call to the inner kernels must give, row by row and bit
for bit, what one call per level gives and what the per-level reference in
``oracles.per_z_inner_integral`` gives.  Failures name the offending row.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from macfade import kernel
from macfade.fading import ExponentialGain, PiecewiseLinearEmpirical, UniformGain
from macfade.kernel import (
    CdfMode,
    ChannelConfig,
    LambdaVector,
    RateAwardVector,
    UserSpec,
    power_integrand,
    rate_integrand,
    win_probability,
)
from macfade.quadrature import (
    BatchRequest,
    IntegrationResult,
    QuadratureError,
    dyadic_panel_edges,
    integrate_or_raise,
    panel_edges,
)

from oracles import merge_edges, per_z_inner_integral, reference_integrate

SIGMA2 = 1.0
INNER_TOL = 1e-9
TAIL_EPS = 1e-12
MAX_EVALS = 100_000
EMPIRICAL = PiecewiseLinearEmpirical((0.0, 0.4, 1.0, 2.0, 3.5), (0.0, 0.2, 0.55, 0.85, 1.0))


def lone(f, lower, upper, breakpoints=(), abs_tol=1e-9, max_evals=100_000):
    """One window as a one-row request, refined on its own.

    Returns its result, converged or not: an unconverged one is the
    ``result`` its QuadratureError carries.
    """
    req = BatchRequest(f, [[lower, *breakpoints, upper]], abs_tol, max_evals)
    try:
        res = integrate_or_raise(req)
    except QuadratureError as exc:
        return exc.result
    return IntegrationResult(float(res.values[0]), float(res.error_estimates[0]),
                             int(res.row_evals[0]), True)


def _channel(*laws):
    return ChannelConfig(SIGMA2, tuple(UserSpec(law, 1.0) for law in laws))


# (channel, mu, lam): distinct weights so every user but the lightest has
# rivals with case boundaries
CASES = {
    "exp1": (_channel(ExponentialGain(1.0)), (1.0,), (0.2,)),
    "exp2": (_channel(ExponentialGain(1.0), ExponentialGain(1.0)), (0.7, 0.3), (0.126, 0.0454)),
    "exp3": (_channel(ExponentialGain(0.5), ExponentialGain(1.0), ExponentialGain(2.0)),
             (0.5, 0.3, 0.2), (0.03, 0.05, 0.07)),
    "exp+uniform": (_channel(ExponentialGain(1.0), UniformGain(0.3, 2.5)),
                    (0.7, 0.3), (0.1, 0.05)),
    "exp+empirical": (_channel(ExponentialGain(1.0), EMPIRICAL), (0.4, 0.6), (0.08, 0.1)),
}


def _levels(i, channel, mu, lam):
    """Levels spanning the whole window of user i, and its special points.

    Includes each z where a rival's case boundary crosses the truncation
    point (the boundary leaves the window just above it), the z where the
    window closes, and levels past it where the window is empty.
    """
    upper = channel.users[i].fading.tail_point(TAIL_EPS)
    z_top = mu[i] * upper / (2.0 * lam[i]) - SIGMA2
    special = [z_top]
    for k in range(len(mu)):
        if mu[k] < mu[i]:
            special.append((mu[i] - mu[k]) * upper / (2.0 * lam[i]) - SIGMA2)
    zs = list(np.linspace(0.0, 1.3 * z_top, 12))
    for z in special:
        zs += [z * (1.0 - 1e-3), z, z * (1.0 + 1e-3)]
    return np.array(sorted(z for z in zs if z >= 0.0))


def _row_kinds(i, zs, channel, mu, lam):
    upper = channel.users[i].fading.tail_point(TAIL_EPS)
    lower = 2.0 * lam[i] * (SIGMA2 + zs) / mu[i]
    empty = lower >= upper
    cut_outside = np.zeros(zs.shape, dtype=bool)
    for k in range(len(mu)):
        if mu[k] < mu[i]:
            cut = 2.0 * lam[i] * (SIGMA2 + zs) / (mu[i] - mu[k])
            cut_outside |= ~empty & (cut >= upper)
    return empty, cut_outside


@pytest.mark.parametrize("mode", list(CdfMode))
@pytest.mark.parametrize("case", list(CASES))
def test_array_levels_match_single_levels_and_reference(case, mode):
    channel, mu, lam = CASES[case]
    mu_v, lam_v = RateAwardVector(mu), LambdaVector(lam)
    for i in range(channel.n_users):
        zs = _levels(i, channel, mu, lam)
        empty, cut_outside = _row_kinds(i, zs, channel, mu, lam)
        assert empty.any()
        if any(m < mu[i] for m in mu):
            assert cut_outside.any()
        for fn, power_weight in ((win_probability, False), (power_integrand, True)):
            batched = fn(i, zs, mu_v, lam_v, channel, mode, INNER_TOL, TAIL_EPS)
            assert batched.shape == zs.shape
            for r, z in enumerate(zs.tolist()):
                single = fn(i, z, mu_v, lam_v, channel, mode, INNER_TOL, TAIL_EPS)
                reference = per_z_inner_integral(
                    i, z, np.asarray(mu), np.asarray(lam), channel, mode, INNER_TOL,
                    TAIL_EPS, power_weight, MAX_EVALS)
                assert batched[r] == single == reference, (fn.__name__, i, z)
            assert np.all(batched[empty] == 0.0)
            assert np.all(batched[~empty] > 0.0)


def test_rate_integrand_rows_match_single_levels():
    channel, mu, lam = CASES["exp3"]
    mu_v, lam_v = RateAwardVector(mu), LambdaVector(lam)
    zs = _levels(0, channel, mu, lam)
    batched = rate_integrand(0, zs, mu_v, lam_v, channel)
    assert [float(v) for v in batched] == [rate_integrand(0, z, mu_v, lam_v, channel)
                                           for z in zs.tolist()]


def test_array_shape_is_kept():
    channel, mu, lam = CASES["exp2"]
    zs = np.array([[0.0, 0.5], [1.0, 500.0]])
    out = win_probability(0, zs, RateAwardVector(mu), LambdaVector(lam), channel)
    assert out.shape == (2, 2)
    assert out[1, 1] == 0.0


class TestFailureAttribution:
    MU = RateAwardVector((0.7, 0.3))
    LAM = LambdaVector((0.126, 0.0454))
    CH2 = CASES["exp2"][0]
    # near the top of user 0's window the integral is tiny and converges at
    # any tolerance; at z = 0 the 135-evaluation budget cannot reach 1e-16
    EASY_Z = 75.0

    @staticmethod
    def budget(monkeypatch, max_evals):
        """Give every inner integral the evaluation budget ``max_evals``."""
        monkeypatch.setattr(kernel, "BatchRequest",
                            functools.partial(BatchRequest, max_evals=max_evals))

    def test_one_failing_row_is_named_with_its_own_result(self, monkeypatch):
        self.budget(monkeypatch, 135)
        easy = win_probability(0, self.EASY_Z, self.MU, self.LAM, self.CH2, tol=1e-16)
        assert easy > 0.0
        with pytest.raises(QuadratureError) as alone:
            win_probability(0, 0.0, self.MU, self.LAM, self.CH2, tol=1e-16)
        zs = np.array([self.EASY_Z, 0.0, 1e3])
        with pytest.raises(QuadratureError) as err:
            win_probability(0, zs, self.MU, self.LAM, self.CH2, tol=1e-16)
        message = str(err.value)
        assert message.startswith("win probability of user 0 at z=0.0: ")
        assert "did not converge" in message
        assert err.value.result == alone.value.result
        assert err.value.result.evals <= 135
        assert not err.value.result.converged
        assert err.value.result.error_estimate > 1e-16

    @pytest.mark.parametrize("fn, quantity", [(power_integrand, "power"),
                                              (rate_integrand, "rate")])
    def test_quantity_is_named(self, fn, quantity, monkeypatch):
        self.budget(monkeypatch, 105)
        with pytest.raises(QuadratureError, match=rf"^{quantity} of user 1 at z=0\.5: "):
            fn(1, np.array([0.5, 2.0]), self.MU, self.LAM, self.CH2, tol=1e-18)

    def test_non_finite_row_is_named(self):
        def integrand(x, rows):
            with np.errstate(divide="ignore"):
                return np.where(rows[:, None] == 1, 1.0 / (x - 0.5), x)

        req = BatchRequest(integrand, [[0.0, 1.0], [0.0, 1.0]], abs_tol=1e-6,
                           row_name=lambda r: f"row {r}")
        with pytest.raises(QuadratureError, match=r"^row 1: .*non-finite") as err:
            integrate_or_raise(req)
        assert err.value.result.evals == 15
        assert not err.value.result.converged


class TestBatchRequest:
    # (lower, breakpoints, upper) per row
    WINDOWS = [(0.0, (1.0, 2.5), 9.0),
               (0.5, (), 4.0),
               (-1.0, (0.0,), 30.0),
               (2.0, (2.1, 2.2, 3.0), 12.0)]

    @pytest.mark.parametrize("tol, budget", [(1e-10, 100_000), (1e-6, 100_000),
                                             (1e-13, 135)])
    def test_rows_equal_lone_requests_and_reference(self, tol, budget):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x) ** 2
        width = max(len(bps) for _, bps, _ in self.WINDOWS) + 2
        edges = [[lo, *bps, hi] + [math.nan] * (width - len(bps) - 2)
                 for lo, bps, hi in self.WINDOWS]
        req = BatchRequest(lambda x, r: f(x), edges, tol, budget)
        alone = [lone(lambda x, r: f(x), lo, hi, bps, tol, budget)
                 for lo, bps, hi in self.WINDOWS]
        reference = [reference_integrate(f, lo, hi, bps, tol, budget)
                     for lo, bps, hi in self.WINDOWS]
        assert alone == reference
        assert all(res.converged for res in alone) == (budget > 135)
        if budget > 135:
            batch = integrate_or_raise(req)
            assert [IntegrationResult(float(batch.values[r]), float(batch.error_estimates[r]),
                                      int(batch.row_evals[r]), True)
                    for r in range(len(self.WINDOWS))] == alone
            assert batch.evals == sum(res.evals for res in alone)
        else:  # the batch stops at the lowest unconverged row, with its lone result
            with pytest.raises(QuadratureError) as err:
                integrate_or_raise(req)
            assert err.value.result == next(res for res in alone if not res.converged)

    def test_unconverged_row_raises_first_failure(self):
        # row 0 integrates x, row 1 a needle 45 evaluations cannot resolve
        f = lambda x, rows: np.where(rows[:, None] == 1, 1.0 / (1e-6 + (x - 0.613) ** 2), x)
        req = BatchRequest(f, [[0.0, 1.0], [0.0, 1.0]], abs_tol=1e-12, max_evals=45,
                           row_name=lambda r: f"row {r}")
        with pytest.raises(QuadratureError, match="^row 1: quadrature did not converge") as err:
            integrate_or_raise(req)
        # each row on its own: a lone request's only row is row 0
        assert err.value.result == lone(lambda x, rows: f(x, rows + 1), 0.0, 1.0, (), 1e-12, 45)
        assert lone(f, 0.0, 1.0, (), 1e-12, 45).converged

    def test_rows_above_a_failure_stop_refining(self):
        # Row 1 has 20 initial panels, so its needle exhausts the shared
        # budget after 2 bisections; the one-panel needles above it could
        # run 11.  Row 0 converges at once.
        budget = 20 * 15 + 2 * 30
        needle = lambda x: 1.0 / (1e-6 + (x - 0.613) ** 2)
        counts = np.zeros(4, dtype=int)

        def integrand(x, rows):
            np.add.at(counts, rows, x.shape[1])
            return np.where(rows[:, None] == 0, x, needle(x))

        edges = [[0.0, 1.0] + [math.nan] * 19, np.linspace(0.0, 1.0, 21),
                 [0.0, 1.0] + [math.nan] * 19, [0.0, 1.0] + [math.nan] * 19]
        req = BatchRequest(integrand, edges, abs_tol=1e-12, max_evals=budget,
                           row_name=lambda r: f"row {r}")
        with pytest.raises(QuadratureError, match="^row 1: quadrature did not converge") as err:
            integrate_or_raise(req)
        assert counts.tolist() == [15, budget, 15 + 2 * 30, 15 + 2 * 30]
        assert err.value.result == lone(lambda x, rows: needle(x), 0.0, 1.0,
                                        tuple(edges[1][1:-1]), 1e-12, budget)

    def test_row_at_float_resolution_ends_as_the_reference(self):
        # The last row spans one ulp, so its panel cannot be bisected: it is
        # set aside and the row ends unconverged after its first rule.  The
        # rows beside it are scaled so far down that they converge at this
        # tolerance, after some bisections of their own.
        top = float(np.nextafter(1.0, 2.0))
        f = lambda x: np.exp(-x) * np.sin(3.0 * x) ** 2
        counts = np.zeros(3, dtype=int)

        def integrand(x, rows):
            np.add.at(counts, rows, x.shape[1])
            return np.where(rows[:, None] == 2, 1.0, 1e-290 * f(x))

        req = BatchRequest(integrand, [[0.0, 9.0], [0.5, 4.0], [1.0, top]], abs_tol=1e-300,
                           row_name=lambda r: f"row {r}")
        with pytest.raises(QuadratureError, match="^row 2: quadrature did not converge") as err:
            integrate_or_raise(req)
        assert err.value.result == reference_integrate(np.ones_like, 1.0, top, (), 1e-300)
        assert err.value.result.evals == counts[2] == 15
        for r, (lo, hi) in enumerate(((0.0, 9.0), (0.5, 4.0))):
            alone = lone(lambda x, rows: 1e-290 * f(x), lo, hi, (), 1e-300)
            assert alone.converged and alone.evals == counts[r] > 15

    def test_error_sum_that_cancels_does_not_stop_a_row(self):
        # A node lands on the cusp at 1/3, so the first panel errors are
        # huge; after they are bisected a running total of the panel errors
        # can cancel to 0.0 while the panels still sum to about 1.6e-7.
        f = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0) + 1e-300)
        req = BatchRequest(lambda x, rows: f(x), [[0.0, 1.0]], abs_tol=1e-12,
                           max_evals=20_000)
        with pytest.raises(QuadratureError, match="did not converge") as err:
            integrate_or_raise(req)
        assert err.value.result == reference_integrate(f, 0.0, 1.0, (), 1e-12, 20_000)
        assert err.value.result.evals > 20_000 - 30

    # row 1 ends unconverged; row 2 meets its pole at its first rule (0.5 is
    # the centre node of [0, 1]) or at its first bisection (0.25)
    @pytest.mark.parametrize("pole", [0.5, 0.25])
    def test_lowest_failed_row_wins(self, pole):
        def integrand(x, rows):
            with np.errstate(divide="ignore"):
                return np.where(rows[:, None] == 2, 1.0 / (x - pole),
                                1.0 / (1e-6 + (x - 0.613) ** 2))

        req = BatchRequest(integrand, [[0.0, 0.1], [0.0, 1.0], [0.0, 1.0]],
                           abs_tol=1e-12, max_evals=105, row_name=lambda r: f"row {r}")
        with pytest.raises(QuadratureError, match="^row 1: quadrature did not converge"):
            integrate_or_raise(req)

    @pytest.mark.parametrize("edges", [
        [[0.0, math.nan, 1.0]],
        [[0.0, math.nan]],
        [[0.0, 2.0, 1.0]],
        [[0.0, math.inf]],
        [0.0, 1.0],
    ])
    def test_validation(self, edges):
        with pytest.raises(ValueError):
            BatchRequest(lambda x, rows: x, edges)

    def test_panel_edges_match_scalar_merge(self):
        rng = np.random.default_rng(3)
        lower = rng.uniform(0.0, 5.0, size=200)
        upper = 20.0
        span = upper - lower
        near = [lower + 1e-13 * span, upper - 1e-13 * span,
                rng.uniform(-5.0, 30.0, size=200)]
        near.append(near[2] + rng.choice([0.0, 1e-13, 1e-6], size=200) * span)
        # each 0.6 gap above the one before: only the head is kept, as the
        # gap is taken to the previous candidate, kept or not
        chain = [lower + 0.3 * span + f * 1e-12 * span for f in (0.0, 0.6, 1.2)]
        infinite = [*near, np.full(lower.shape, np.inf)]
        for cuts in (near, chain, infinite):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = panel_edges(lower, upper, cuts)
            for r in range(len(lower)):
                lo = float(lower[r])
                cand = dyadic_panel_edges(lo, upper) + [float(c[r]) for c in cuts]
                expected = [lo, *merge_edges(cand, lo, upper), upper]
                got = rows[r][~np.isnan(rows[r])].tolist()
                assert got == expected
            if cuts is chain:
                assert (np.count_nonzero(~np.isnan(rows), axis=1) == 2 + 5 + 1).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_panel_edges_random_chains_match_scalar_merge(self, seed):
        # Rows mix isolated near pairs, chains of three to five candidates
        # spaced a random fraction of the gap apart, cuts on a dyadic edge,
        # and infinite cuts, each in a different column from row to row.
        rng = np.random.default_rng(seed)
        n = 300
        lower = rng.uniform(0.0, 5.0, size=n)
        upper = 20.0
        span = upper - lower
        dyadic = np.stack(dyadic_panel_edges(lower, upper), axis=1)
        cuts = []
        for _ in range(3):
            head = rng.uniform(-2.0, 22.0, size=n)
            head = np.where(rng.random(n) < 0.2, dyadic[np.arange(n), rng.integers(0, 5, n)],
                            head)
            cuts.append(np.where(rng.random(n) < 0.1, np.inf, head))
            offset = np.zeros(n)
            for _ in range(rng.integers(1, 5)):
                offset = offset + rng.uniform(0.2, 1.1, size=n) * 1e-12 * span
                cuts.append(np.where(rng.random(n) < 0.7, head + offset, np.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = panel_edges(lower, upper, cuts)
        dropped = 0
        for r in range(n):
            lo = float(lower[r])
            cand = dyadic_panel_edges(lo, upper) + [float(c[r]) for c in cuts]
            expected = [lo, *merge_edges(cand, lo, upper), upper]
            got = rows[r][~np.isnan(rows[r])].tolist()
            assert got == expected
            dropped += sum(lo < c < upper for c in cand) - len(expected) + 2
        assert dropped > n  # the gap rule was exercised, not just the window
