"""Independent numerical oracles used only by the tests.

Most of this is deliberately written from scratch on plain numpy so the
values it produces share no code path with the package: composite Simpson
integration, the exponential integral E1 via series / continued fraction,
and the single-user water-filling baseline (power, rate, and price solve)
it implies for an exponential gain law.

The exception is the reference for the batched integrator:
``reference_integrate``, a plain one-integral adaptive Gauss-Kronrod (7, 15)
loop, and ``per_z_inner_integral``, the inner gain integral built on it one
interference level at a time (a scalar closure and scalar breakpoint
merging).  They reuse the package's rule constants and integrand pieces on
purpose: the batched rows must match them bit for bit, so they must do the
same arithmetic in the same order, only one integral at a time.

``clip_star``, ``cross_argument``, ``case_boundary`` and ``cdf_factor``
are the paper's clipping rule one gain at a time, for tests that probe it
at chosen points; ``cdf_factor`` applies the package's own clipping.

The Monte Carlo allocation has two references of the same kind.  The
scalar ``winner_partition`` / ``per_state_allocation`` pair partitions one
state's interference axis at every root and crossing level and awards each
elementary interval to its midpoint argmax; ``reference_allocate_chunk`` is
the same sort-and-argmax procedure over a whole chunk of states.  Both use
the package's crossing and root expressions, so the closed-form
``montecarlo._allocate_chunk`` must match them bit for bit on continuous
draws.

``reference_piecewise_pdf`` and ``reference_piecewise_quantile`` are
frozen copies of the piecewise-linear law's density and quantile as they
were before they became segment-table lookups: clipped segment indices and
an explicit p = 0 branch.  The tables must equal them with ``==``.

``reference_estimate`` is a frozen copy of the Monte Carlo estimator as it
runs one chunk at a time: state-major draws, the closed-form allocation on
(n, m) arrays, each user's r, r^2, p and p^2 column summed as one
contiguous vector (numpy's pairwise order) and partials added in chunk
order.  It pins every output byte, so ``montecarlo.estimate`` must equal it
with ``==`` however it splits chunks over threads.
``reference_estimate_win_probability`` draws the same stream the same way
and is the only win-probability estimator: acceptance 5 checks
``kernel.win_probability`` against it.
"""

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from macfade.kernel import CdfMode, _clipped_argument
from macfade.quadrature import (
    _EPS,
    _GAUSS_IDX,
    _NODES,
    _WEIGHTS_G,
    _WEIGHTS_K,
    IntegrationResult,
    dyadic_panel_edges,
)


def _coeffs(v) -> np.ndarray:
    return v.as_array() if hasattr(v, "as_array") else np.asarray(v, dtype=float)


def simpson(f, a, b, n=20001):
    """Composite Simpson rule on [a, b] with an odd node count."""
    if b <= a:
        return 0.0
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = np.asarray(f(xs), dtype=float)
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


_EULER_GAMMA = 0.57721566490153286060651209008240243


def exp_integral_e1(x: float) -> float:
    """E1(x) = integral of exp(-t)/t from x to infinity, for x > 0.

    Power series for small arguments, modified Lentz continued fraction for
    large ones (the crossover at 1 keeps both sides well conditioned).
    """
    if x <= 0.0:
        raise ValueError("E1 requires x > 0")
    if x <= 1.0:
        total = -_EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 200):
            term *= -x / k
            total -= term / k
            if abs(term / k) < 1e-18 * abs(total):
                break
        return total
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x)


def exponential_pdf(h, mean):
    return np.exp(-np.asarray(h) / mean) / mean


def wf_power(lam: float, sigma2: float, mean_gain: float) -> float:
    """Average transmit power E[(1/(2 lam) - sigma2/h)^+] for h ~ Exp(mean_gain)."""
    threshold = 2.0 * lam * sigma2
    upper = threshold + 45.0 * mean_gain

    def integrand(h):
        return (1.0 / (2.0 * lam) - sigma2 / h) * exponential_pdf(h, mean_gain)

    return simpson(integrand, threshold, upper)


def wf_rate(lam: float, sigma2: float, mean_gain: float) -> float:
    """Ergodic rate E[0.5 ln(h / (2 lam sigma2))^+] in nats for h ~ Exp(mean_gain)."""
    threshold = 2.0 * lam * sigma2
    upper = threshold + 45.0 * mean_gain

    def integrand(h):
        return 0.5 * np.log(np.asarray(h) / threshold) * exponential_pdf(h, mean_gain)

    return simpson(integrand, threshold, upper)


def wf_solve_lambda(pbar: float, sigma2: float, mean_gain: float) -> float:
    """Price meeting the average power budget, by plain bisection on a log scale."""
    lo, hi = 1e-8, 1e8
    assert wf_power(lo, sigma2, mean_gain) > pbar > wf_power(hi, sigma2, mean_gain)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if wf_power(mid, sigma2, mean_gain) > pbar:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _reference_rule(f, lows, highs):
    """Gauss-Kronrod 15-point values and error estimates on a 1-D batch of panels."""
    lows_arr = np.asarray(lows, dtype=float)
    highs_arr = np.asarray(highs, dtype=float)
    centers = 0.5 * (lows_arr + highs_arr)
    halfwidths = 0.5 * (highs_arr - lows_arr)
    xs = centers[:, None] + halfwidths[:, None] * _NODES
    fv = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    resk = halfwidths * (fv @ _WEIGHTS_K)
    resabs = halfwidths * (np.abs(fv) @ _WEIGHTS_K)
    assert np.all(np.isfinite(resabs)), "non-finite integrand value"
    resg = halfwidths * (fv[:, _GAUSS_IDX] @ _WEIGHTS_G)
    means = resk / (highs_arr - lows_arr)
    resasc = halfwidths * (np.abs(fv - means[:, None]) @ _WEIGHTS_K)
    err = np.abs(resk - resg)
    safe_asc = np.where(resasc > 0.0, resasc, 1.0)
    sharpened = resasc * np.minimum(1.0, (200.0 * err / safe_asc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), sharpened, err)
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err


def reference_integrate(f, lower, upper, breakpoints=(), abs_tol=1e-9, max_evals=100_000):
    """One integral of the vectorized ``f``, refined on its own.

    Pops the panel with the largest error (the leftmost on ties), bisects
    it, charges 30 evaluations, and keeps a running total of the panel
    errors, started at their left-to-right sum.  When that total meets the
    tolerance the panels are summed left to right, and refinement stops
    only if that sum meets it too; it also stops at the budget.  The result
    is the panels summed left to right.
    """
    edges = [float(lower), *[float(b) for b in breakpoints], float(upper)]
    heap: list = []  # (-err, a, b, value)
    done: list = []  # (a, b, value, err) panels at float resolution
    values, errs = _reference_rule(f, edges[:-1], edges[1:])
    evals = 15 * (len(edges) - 1)
    for a, b, value, err in zip(edges, edges[1:], values, errs):
        heapq.heappush(heap, (-float(err), a, b, float(value)))
    total_err = 0.0
    for err in errs:
        total_err += float(err)

    def summed():
        panels = done + [(a, b, value, -neg_err) for neg_err, a, b, value in heap]
        panels.sort(key=lambda p: p[0])
        value = 0.0
        error = 0.0
        for _, _, v, e in panels:
            value += v
            error += e
        return value, error

    while heap and evals + 30 <= max_evals:
        if not total_err > abs_tol:
            total_err = summed()[1]
            if total_err <= abs_tol:
                break
        neg_err, a, b, value = heapq.heappop(heap)
        err = -neg_err
        mid = 0.5 * (a + b)
        if not a < mid < b:
            done.append((a, b, value, err))
            continue
        halves, half_errs = _reference_rule(f, (a, mid), (mid, b))
        evals += 30
        heapq.heappush(heap, (-float(half_errs[0]), a, mid, float(halves[0])))
        heapq.heappush(heap, (-float(half_errs[1]), mid, b, float(halves[1])))
        total_err += float(half_errs[0]) + float(half_errs[1]) - err

    value, error = summed()
    return IntegrationResult(value, error, evals, error <= abs_tol)


def merge_edges(edges, lower: float, upper: float) -> list:
    """Sort candidate interior edges, dropping out-of-window and near-duplicate ones.

    A candidate is dropped within 1e-12 of the window width of ``upper``, or
    of the in-window candidate before it, kept or not: of a chain of
    candidates each that close to the one before, only the head is kept.
    """
    gap = 1e-12 * (upper - lower)
    inside = [b for b in sorted(edges) if lower < b < upper and not upper - b <= gap]
    return [b for a, b in zip([-math.inf] + inside, inside) if not b - a <= gap]


def per_z_inner_integral(i, z, mu_arr, lam_arr, channel, mode, tol, tail_eps,
                         power_weight, max_evals):
    """Inner h-integral at one interference level z, one request per level."""
    sigma2 = channel.sigma2
    dist_i = channel.users[i].fading
    lower = 2.0 * lam_arr[i] * (sigma2 + z) / mu_arr[i]
    upper = dist_i.tail_point(tail_eps)
    if upper <= lower:
        return 0.0
    rivals = [k for k in range(channel.n_users) if k != i]
    edges = dyadic_panel_edges(lower, upper)
    for k in rivals:
        if mu_arr[k] < mu_arr[i]:
            edges.append(2.0 * lam_arr[i] * (sigma2 + z) / (mu_arr[i] - mu_arr[k]))
    edges.extend(dist_i.kinks())
    for k in rivals:
        # the gain h at which rival k's CDF argument reaches its kink c
        for c in channel.users[k].fading.kinks():
            den = 2.0 * lam_arr[k] * (sigma2 + z) - c * (mu_arr[k] - mu_arr[i])
            if den > 0.0:
                edges.append(2.0 * c * lam_arr[i] * (sigma2 + z) / den)
    breakpoints = merge_edges(edges, lower, upper)

    rival_dists = [channel.users[k].fading for k in rivals]

    def integrand(h):
        value = dist_i._pdf_raw(h)
        if power_weight:
            value = value / h
        for k, dist in zip(rivals, rival_dists):
            arg = _clipped_argument(i, k, h, z, mu_arr, lam_arr, sigma2, mode)
            value = value * dist._cdf_raw(arg)
        return value

    result = reference_integrate(integrand, lower, upper, breakpoints, tol, max_evals)
    assert result.converged, (i, z)
    return max(result.value, 0.0)


# --- Scalar cross-argument helpers ------------------------------------------


def clip_star(x: float) -> float:
    """Clip a CDF argument: identity for x >= 0, +inf for x < 0.

    The +inf sentinel makes the downstream CDF evaluate to 1 (the rival gain
    is surely below an unreachable threshold read the other way around).
    Idempotent by construction.
    """
    return x if x >= 0.0 else math.inf


def cross_argument(i: int, k: int, h: float, z: float, mu, lam, sigma2: float) -> float:
    """Argument fed to rival k's CDF when user i holds gain h at level z.

    Positive exactly when the denominator is positive (the numerator always
    is for h > 0).  An exact denominator zero returns +inf, the limit from
    below; the event has measure zero and the clipped factor is continuous
    through it.
    """
    mu = _coeffs(mu)
    lam = _coeffs(lam)
    a = sigma2 + z
    num = 2.0 * lam[k] * h * a
    den = 2.0 * lam[i] * a + (mu[k] - mu[i]) * h
    if den == 0.0:
        return math.inf
    return num / den


def case_boundary(i: int, k: int, z: float, mu, lam, sigma2: float):
    """Gain at which the cross-argument denominator for rival k hits zero.

    Exists only when mu_k < mu_i; beyond it the rival factor is pinned at 1
    in corrected mode (and wrongly at 0 in naive mode).  Returns None when
    the denominator stays positive for every gain.
    """
    mu = _coeffs(mu)
    lam = _coeffs(lam)
    if mu[k] >= mu[i]:
        return None
    return 2.0 * lam[i] * (sigma2 + z) / (mu[i] - mu[k])


def cdf_factor(i: int, k: int, h, z: float, mu, lam, channel,
               mode: CdfMode = CdfMode.CORRECTED):
    """Rival k's CDF factor at user-i gain h: F_k applied to the treated argument.

    The treatment is the package's own ``kernel._clipped_argument``, the one
    the integrals use.
    """
    mu_arr = _coeffs(mu)
    lam_arr = _coeffs(lam)
    h_arr = np.asarray(h, dtype=float)
    arg = _clipped_argument(i, k, h_arr, z, mu_arr, lam_arr, channel.sigma2, mode)
    out = channel.users[k].fading.cdf(arg)
    return float(out) if np.ndim(h) == 0 else out


@dataclass(frozen=True)
class FadingState:
    """One joint draw of positive gains, one per user."""

    h: tuple

    def __post_init__(self):
        h = tuple(float(x) for x in self.h)
        if not h or any(not (math.isfinite(x) and x > 0.0) for x in h):
            raise ValueError("every gain in a fading state must be positive and finite")
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class WinnerPartition:
    """Disjoint, sorted (z_lo, z_hi, winner) intervals; ties flagged."""

    intervals: tuple
    tie_flagged: bool = False


def utility(i: int, z: float, h_i: float, mu, lam, sigma2: float) -> float:
    """Marginal utility of awarding user i a received-power slab at level z."""
    mu = _coeffs(mu)
    lam = _coeffs(lam)
    return mu[i] / (2.0 * (sigma2 + z)) - lam[i] / h_i


def winner_partition(state: FadingState, mu, lam, sigma2: float) -> WinnerPartition:
    """Decompose [0, z_max] into intervals won by the strict positive argmax user.

    Candidate endpoints are the positivity roots and the pairwise crossing
    levels inside (0, z_max); within each elementary interval the utility
    ranking is constant, so the midpoint decides.  Utilities all decrease in
    z and any pair crosses at most once, so each user's winning run is
    contiguous; adjacent elementary intervals with the same winner are
    merged.  An exact utility tie on an interval goes to the lowest user
    index and is flagged.
    """
    mu_arr = [float(x) for x in _coeffs(mu)]
    lam_arr = [float(x) for x in _coeffs(lam)]
    sigma2 = float(sigma2)
    h = state.h
    users = range(len(h))
    costs = [lam_arr[k] / h[k] for k in users]

    roots = [mu_arr[k] * h[k] / (2.0 * lam_arr[k]) - sigma2 for k in users]
    z_max = max(max(roots), 0.0)
    if z_max <= 0.0:
        return WinnerPartition(())

    cuts = [r for r in roots if 0.0 < r < z_max]
    for i in users:
        for j in users[i + 1:]:
            d = costs[i] - costs[j]
            if d == 0.0:
                continue
            z = 0.5 * ((mu_arr[i] - mu_arr[j]) / d) - sigma2
            if 0.0 < z < z_max:
                cuts.append(z)
    grid = [0.0] + sorted(cuts) + [z_max]

    intervals = []
    tie = False
    for lo, hi in zip(grid, grid[1:]):
        if hi <= lo:
            continue
        scale = 2.0 * (sigma2 + 0.5 * (lo + hi))
        u = [mu_arr[k] / scale - costs[k] for k in users]
        w = max(users, key=u.__getitem__)  # the first of equal maxima
        if u[w] > 0.0:
            if u.count(u[w]) > 1:
                tie = True
            if intervals and intervals[-1][2] == w and intervals[-1][1] == lo:
                intervals[-1] = (intervals[-1][0], hi, w)
            else:
                intervals.append((lo, hi, w))
    return WinnerPartition(tuple(intervals), tie)


def per_state_allocation(partition: WinnerPartition, state: FadingState,
                         sigma2: float):
    """Rates and transmit powers each user collects from one partitioned state."""
    m = len(state.h)
    rates = np.zeros(m)
    powers = np.zeros(m)
    for lo, hi, w in partition.intervals:
        rates[w] += 0.5 * np.log((sigma2 + hi) / (sigma2 + lo))
        powers[w] += (hi - lo) / state.h[w]
    return tuple(rates), tuple(powers)


def reference_allocate_chunk(gains, mu_arr, lam_arr, sigma2):
    """Sort-and-argmax allocation of a chunk of states, (n, m) rates and powers.

    Every row's roots and crossing levels, clipped to [0, z_max], are sorted
    into a grid; each elementary interval goes to its midpoint argmax when
    that utility is positive, and each user is scored on the first and last
    interval it wins.
    """
    n, m = gains.shape
    roots = mu_arr * gains / (2.0 * lam_arr) - sigma2
    z_max = np.maximum(np.max(roots, axis=1), 0.0)

    columns = [np.zeros((n, 1))]
    columns.append(np.clip(roots, 0.0, z_max[:, None]))
    for i in range(m):
        for j in range(i + 1, m):
            d = lam_arr[i] / gains[:, i] - lam_arr[j] / gains[:, j]
            with np.errstate(divide="ignore", invalid="ignore"):
                z = 0.5 * ((mu_arr[i] - mu_arr[j]) / d) - sigma2
            z = np.where(np.isnan(z), 0.0, z)
            columns.append(np.clip(z, 0.0, z_max)[:, None])
    columns.append(z_max[:, None])
    grid = np.sort(np.concatenate(columns, axis=1), axis=1)

    lo = grid[:, :-1]
    hi = grid[:, 1:]
    mid = 0.5 * (lo + hi)
    u = mu_arr / (2.0 * (sigma2 + mid[:, :, None])) - lam_arr / gains[:, None, :]
    winner = np.argmax(u, axis=2)
    # strict positivity; zero-width intervals score zero either way
    active = np.max(u, axis=2) > 0.0

    n_intervals = grid.shape[1] - 1
    rows = np.arange(n)
    rates = np.zeros((n, m))
    powers = np.zeros((n, m))
    for idx in range(m):
        mask = active & (winner == idx)
        won = np.any(mask, axis=1)
        first = np.argmax(mask, axis=1)
        last = n_intervals - 1 - np.argmax(mask[:, ::-1], axis=1)
        z_enter = lo[rows, first]
        z_exit = hi[rows, last]
        rates[:, idx] = np.where(
            won, 0.5 * np.log((sigma2 + z_exit) / (sigma2 + z_enter)), 0.0)
        powers[:, idx] = np.where(won, (z_exit - z_enter) / gains[:, idx], 0.0)
    return rates, powers


# --- Monte Carlo estimator reference (see the module docstring) ------------

REFERENCE_CHUNK_SIZE = 4096


def reference_state_chunk(channel, seed: int, chunk_index: int) -> np.ndarray:
    """Gains (chunk size, n_users) of one chunk, zeros redrawn from its substream."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=chunk_index << 128))
    m = channel.n_users
    u = rng.random((REFERENCE_CHUNK_SIZE, m))
    gains = np.empty_like(u)
    for k in range(m):
        gains[:, k] = channel.users[k].fading.quantile(u[:, k])
    while True:
        zero = gains == 0.0
        if not np.any(zero):
            break
        fresh = rng.random(int(np.count_nonzero(zero)))
        u[zero] = fresh
        for k in range(m):
            col = zero[:, k]
            if np.any(col):
                gains[col, k] = channel.users[k].fading.quantile(u[col, k])
    return gains


def reference_closed_form_chunk(gains, mu_arr, lam_arr, sigma2):
    """Closed-form allocation of a (n, m) chunk, column by column."""
    n, m = gains.shape
    cost = lam_arr / gains
    roots = mu_arr * gains / (2.0 * lam_arr) - sigma2
    enter = [np.zeros(n) for _ in range(m)]
    exit_ = [roots[:, i] for i in range(m)]
    alive = [np.ones(n, dtype=bool) for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d = cost[:, i] - cost[:, j]
            if mu_arr[i] == mu_arr[j]:
                alive[i] &= d <= 0.0
                alive[j] &= d > 0.0
                continue
            if mu_arr[i] > mu_arr[j]:
                big, small, overtaken = i, j, d > 0.0
            else:
                big, small, overtaken = j, i, d < 0.0
            with np.errstate(divide="ignore"):
                z = 0.5 * ((mu_arr[i] - mu_arr[j]) / d) - sigma2
            exit_[big] = np.minimum(exit_[big], np.where(overtaken, z, np.inf))
            enter[small] = np.maximum(enter[small], z)
            alive[small] &= overtaken

    rates = np.zeros((n, m))
    powers = np.zeros((n, m))
    for i in range(m):
        won = alive[i] & (enter[i] < exit_[i])
        lo = np.where(won, enter[i], 0.0)
        hi = np.where(won, exit_[i], 0.0)
        rates[:, i] = 0.5 * np.log((sigma2 + hi) / (sigma2 + lo))
        powers[:, i] = (hi - lo) / gains[:, i]
    return rates, powers


def _reference_chunk_sum(channel, seed, n_samples, per_chunk):
    total = 0
    for index in range((n_samples + REFERENCE_CHUNK_SIZE - 1) // REFERENCE_CHUNK_SIZE):
        size = min(REFERENCE_CHUNK_SIZE, n_samples - index * REFERENCE_CHUNK_SIZE)
        total = total + per_chunk(reference_state_chunk(channel, seed, index)[:size])
    return total


def reference_estimate(channel, mu, lam, n_samples: int, seed: int):
    """Sample means and standard errors as an ``McEstimate``, one chunk at a time."""
    from macfade.montecarlo import McEstimate

    mu_arr = _coeffs(mu)
    lam_arr = _coeffs(lam)
    sigma2 = channel.sigma2
    m = channel.n_users

    def column_sums(values):
        return np.array([np.sum(np.ascontiguousarray(col)) for col in values.T])

    def sums(gains):
        rates, powers = reference_closed_form_chunk(gains, mu_arr, lam_arr, sigma2)
        return np.stack((
            column_sums(rates), column_sums(rates * rates),
            column_sums(powers), column_sums(powers * powers),
        ))

    sum_r, sum_r2, sum_p, sum_p2 = _reference_chunk_sum(channel, seed, n_samples, sums)

    n = float(n_samples)
    mean_r = sum_r / n
    mean_p = sum_p / n
    if n_samples > 1:
        var_r = np.maximum(sum_r2 - n * mean_r**2, 0.0) / (n - 1.0)
        var_p = np.maximum(sum_p2 - n * mean_p**2, 0.0) / (n - 1.0)
        se_r = np.sqrt(var_r / n)
        se_p = np.sqrt(var_p / n)
    else:
        se_r = np.full(m, np.nan)
        se_p = np.full(m, np.nan)
    return McEstimate(
        rates=tuple(mean_r),
        powers=tuple(mean_p),
        rate_se=tuple(se_r),
        power_se=tuple(se_p),
        n_samples=n_samples,
    )


def reference_estimate_win_probability(channel, i, z, mu, lam, n_samples: int, seed: int):
    """(fraction of states where user i strictly wins at z, its standard error)."""
    mu_arr = _coeffs(mu)
    lam_arr = _coeffs(lam)
    sigma2 = channel.sigma2
    rivals = [k for k in range(channel.n_users) if k != i]

    def wins(gains):
        u = mu_arr / (2.0 * (sigma2 + z)) - lam_arr / gains
        own = u[:, i]
        won = own > 0.0
        if rivals:
            won &= own > functools.reduce(np.maximum, (u[:, k] for k in rivals))
        return int(np.count_nonzero(won))

    p_hat = _reference_chunk_sum(channel, seed, n_samples, wins) / n_samples
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
    return p_hat, se


def reference_piecewise_pdf(h_knots, cdf_knots, arr):
    """Slope of the piecewise-linear cdf, right-continuous, 0 outside the knots."""
    h, F = np.asarray(h_knots, dtype=float), np.asarray(cdf_knots, dtype=float)
    slopes = np.diff(F) / np.diff(h)
    seg = np.searchsorted(h, arr, side="right") - 1
    valid = (seg >= 0) & (seg < len(h) - 1)
    seg = np.clip(seg, 0, len(h) - 2)
    return np.where(valid, slopes[seg], 0.0)


def reference_piecewise_quantile(h_knots, cdf_knots, arr):
    """Smallest gain whose piecewise-linear cdf reaches p, for p in [0, 1)."""
    h, F = np.asarray(h_knots, dtype=float), np.asarray(cdf_knots, dtype=float)
    idx = np.searchsorted(F, arr, side="left")
    idx = np.minimum(idx, len(F) - 1)
    i1 = np.maximum(idx, 1)
    f0, f1 = F[i1 - 1], F[i1]
    h0, h1 = h[i1 - 1], h[i1]
    denom = np.where(f1 > f0, f1 - f0, 1.0)
    interp = h0 + (arr - f0) / denom * (h1 - h0)
    return np.where(idx == 0, h[0], interp)
