"""Independent Monte Carlo oracle for rates, powers, and win probabilities.

For each joint fading draw the interference axis z >= 0 is awarded slab by
slab to the user whose marginal utility

    u_i(z) = mu_i / (2*(sigma2 + z)) - lam_i / h_i

is strictly largest and positive there (an exact tie goes to the lowest
index).  In t = 1/(sigma2 + z) every utility is a line, mu_i*t/2 - lam_i/h_i,
so the set where user i beats one rival is a half-line and the set where it
wins is an intersection of half-lines: one interval [enter_i, exit_i].  A
rival with a larger mu wins at small z and is overtaken past the crossing
level, which raises enter_i; a rival with a smaller mu does the reverse and
lowers exit_i, as does the user's own positivity root; a larger-mu rival
that is no dearer per unit of gain is never overtaken and knocks the user
out.  Winning [z_lo, z_hi] earns rate 0.5*ln((sigma2+z_hi) / (sigma2+z_lo))
and costs transmit power (z_hi - z_lo)/h_i.

Randomness is counter-based: chunk j of a run draws its gains from
Philox(key=seed, counter=j << 128), so any parallel split over whole chunks
reproduces the serial result bit for bit.  The chunk size is therefore part
of the stream contract, not a tuning knob.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernel import ChannelConfig, _coeffs

__all__ = [
    "McEstimate",
    "CHUNK_SIZE",
    "state_chunk",
    "estimate",
    "estimate_win_probability",
]

CHUNK_SIZE = 4096


@dataclass(frozen=True)
class McEstimate:
    rates: tuple
    powers: tuple
    rate_se: tuple
    power_se: tuple
    n_samples: int


def _chunk_rng(seed: int, chunk_index: int):
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk_index << 128))


def state_chunk(channel: ChannelConfig, seed: int, chunk_index: int,
                chunk_size: int = CHUNK_SIZE) -> np.ndarray:
    """Gains (chunk_size, n_users) of chunk ``chunk_index`` of the run's stream.

    Column k is user k's inverse-cdf transform of its uniform column.  Exact
    zeros (a probability-zero event) are redrawn from the same substream.
    """
    rng = _chunk_rng(seed, chunk_index)
    m = channel.n_users
    u = rng.random((chunk_size, m))
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


def _allocate_chunk(gains: np.ndarray, mu_arr: np.ndarray, lam_arr: np.ndarray,
                    sigma2: float):
    """Per-state rates and powers (n, m) from each user's one winning interval.

    Each pair's crossing level 0.5*((mu_i - mu_j)/d) - sigma2, with
    d = lam_i/h_i - lam_j/h_j, is computed once.  Where the larger-mu user
    of the pair pays more per unit of gain, the other overtakes it past the
    crossing: the crossing caps the larger-mu user's interval from above
    and opens the other's from below.  Elsewhere the smaller-mu user never
    wins.  Equal mu gives parallel lines: the cheaper user wins throughout,
    the lower index on a tie.  The user's own positivity root caps its
    interval too.  These are the numbers the sort-and-argmax partition cuts
    at, so rates and powers match it bit for bit on continuous draws.
    """
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
            # where not overtaken, small is knocked out and its enter unused
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


def _chunk_sum(channel: ChannelConfig, seed: int, n_samples: int, threads: int,
               chunk_size: int, per_chunk):
    """Sum of ``per_chunk(gains)`` over the run's chunks, added in chunk order.

    The thread count changes scheduling only, so the sum is bit-identical
    for any value.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")

    def run(index):
        size = min(chunk_size, n_samples - index * chunk_size)
        return per_chunk(state_chunk(channel, seed, index, chunk_size)[:size])

    chunks = range((n_samples + chunk_size - 1) // chunk_size)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run, chunks))
    else:
        partials = [run(index) for index in chunks]
    total = 0
    for part in partials:
        total = total + part
    return total


def estimate(channel: ChannelConfig, mu, lam, n_samples: int, seed: int,
             threads: int = 1, chunk_size: int = CHUNK_SIZE) -> McEstimate:
    """Sample means and standard errors of per-user rates and transmit powers.

    Estimates are bit-identical for any thread count.
    """
    mu_arr = _coeffs(mu)
    lam_arr = _coeffs(lam)
    sigma2 = channel.sigma2
    m = channel.n_users

    def sums(gains):
        rates, powers = _allocate_chunk(gains, mu_arr, lam_arr, sigma2)
        return np.stack((
            np.sum(rates, axis=0), np.sum(rates * rates, axis=0),
            np.sum(powers, axis=0), np.sum(powers * powers, axis=0),
        ))

    sum_r, sum_r2, sum_p, sum_p2 = _chunk_sum(channel, seed, n_samples, threads,
                                              chunk_size, sums)

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


def estimate_win_probability(channel: ChannelConfig, i: int, z: float, mu, lam,
                             n_samples: int, seed: int, threads: int = 1,
                             chunk_size: int = CHUNK_SIZE):
    """Fraction of states where user i strictly wins with positive utility at z."""
    if not z >= 0.0:
        raise ValueError("z must be nonnegative")
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

    p_hat = _chunk_sum(channel, seed, n_samples, threads, chunk_size, wins) / n_samples
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
    return p_hat, se
