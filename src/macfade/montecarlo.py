"""Independent Monte Carlo oracle for per-user rates and transmit powers.

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
out, setting enter_i = +inf.  Winning [z_lo, z_hi] earns rate
0.5*ln((sigma2+z_hi) / (sigma2+z_lo)) and costs transmit power
(z_hi - z_lo)/h_i; an empty interval collapses to [exit_i, exit_i] and
earns exactly 0, so no step writes through a random per-state mask.

Randomness is counter-based: chunk j of a run draws its gains from
Philox(key=seed, counter=j << 128), and the estimate adds per-chunk sums
in chunk order, so any split of the run over whole chunks would reproduce
the one-thread result bit for bit.  The chunk size is therefore part of
the stream contract, not a tuning knob.  A run's one Philox is moved to
each chunk's counter by its state setter: a fresh generator's stream, in
1-2 us instead of 11-18.

The run owns one (4, m, 2, CHUNK_SIZE) block of r, r^2, p and p^2 and
takes the chunks two at a time, so each numpy call covers two chunks.
A chunk's uniforms land in the r^2 row, scratch until the allocation,
and its gains user-major, one contiguous row of states per user, in the
p row.  One allocation runs over the block, and one ``np.sum`` per chunk
over its slice of the last axis yields that chunk's column sums.  The
sum order is the contract that keeps the bytes: each user's column of a
chunk is summed pairwise (numpy's order for a contiguous vector), and
the per-chunk sums are added in chunk order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import ChannelConfig, is_int

__all__ = [
    "McEstimate",
    "CHUNK_SIZE",
    "state_chunk",
    "estimate",
]

CHUNK_SIZE = 4096
_PASS_CHUNKS = 2  # chunks a numpy pass covers; four put a 2-user run at 1.3 MB


@dataclass(frozen=True)
class McEstimate:
    rates: tuple
    powers: tuple
    rate_se: tuple
    power_se: tuple
    n_samples: int


def _run_stream(seed: int):
    """A run's generator and its fresh state: counter 0, nothing buffered."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen, gen.bit_generator.state


def state_chunk(channel: ChannelConfig, seed: int, chunk_index: int, out=None, *,
                _run=None) -> np.ndarray:
    """Gains (CHUNK_SIZE, n_users) of chunk ``chunk_index`` of the run's stream.

    Column k is user k's inverse-cdf transform of its uniform column, and
    each column is contiguous in memory.  Exact zeros (a probability-zero
    event) are redrawn from the same substream.  Given an (n_users,
    CHUNK_SIZE) ``out`` with contiguous rows, the gains go there and the
    result is its transpose.  ``estimate`` passes its ``_run_stream`` pair
    and a C-contiguous (CHUNK_SIZE, n_users) scratch for the uniforms as
    ``_run``; ``seed`` then goes unread.
    """
    _check_int("chunk_index", chunk_index, 0)
    laws = [user.fading for user in channel.users]
    if _run is None:
        _check_int("seed", seed, 0)
        _run = _run_stream(seed), np.empty((CHUNK_SIZE, len(laws)))
    (gen, state), u = _run
    high, low = divmod(int(chunk_index), 1 << 64)  # the counter's four 64-bit words
    state["state"]["counter"] = [0, 0, low, high]
    gen.bit_generator.state = state
    gen.random(out=u)
    gains = np.empty((len(laws), CHUNK_SIZE)) if out is None else out
    for k, law in enumerate(laws):
        gains[k] = law._quantile_raw(u[:, k])
    while not gains.all():
        zero = gains == 0.0
        fresh = gen.random(int(np.count_nonzero(zero)))
        u[zero.T] = fresh  # state-major order, as the uniforms were drawn
        for k, law in enumerate(laws):
            col = zero[k]
            if np.any(col):
                gains[k, col] = law._quantile_raw(u[col, k])
    return gains.T


def _allocate_chunk(gains: np.ndarray, mu_arr: np.ndarray, lam_arr: np.ndarray,
                    sigma2: float, out=None):
    """Per-state rates and powers (n, m) from each user's one winning interval.

    Each pair's crossing level 0.5*((mu_i - mu_j)/d) - sigma2, with
    d = lam_i/h_i - lam_j/h_j, is computed once.  Where the larger-mu user
    of the pair pays more per unit of gain, that is where
    (mu_j - mu_i)/d < 0, the other overtakes it past the crossing: the
    crossing caps the larger-mu user's interval from above and opens the
    other's from below.  Elsewhere copysign makes the level +inf (d = -0
    too): the cap stays open and the smaller-mu user, opened at +inf, never
    wins.  Equal mu gives parallel lines: the cheaper user wins throughout,
    the lower index on a tie.  The user's own positivity root caps its
    interval too.  These are the numbers the sort-and-argmax partition cuts
    at, so rates and powers match it bit for bit on continuous draws.  With
    exit floored at 0, min(enter, exit) collapses a lost interval to
    [exit, exit], which earns exactly 0.  A NaN level (d = inf - inf) is
    dropped by the fmin cap and knocks out through the enter maximum.

    The maths runs on user-major (m, n) arrays, so it is fastest when each
    column of ``gains`` is contiguous, as ``state_chunk`` lays them out.
    ``out`` is a (4, m, n) work array, or a view of one whose last axis is
    contiguous: the rates land in out[0] and the powers in out[2], and
    out[1] and out[3] serve as scratch.  The (n, m) results are views of it.
    ``gains`` may be out[2].T: the gains are read there until the powers
    replace them.
    """
    g = gains.T
    m, n = g.shape
    work = np.empty((4, m, n)) if out is None else out
    exit_, cost, powers, enter = work  # exit_ becomes the rates
    np.multiply(mu_arr[:, None], g, out=exit_)  # the positivity roots
    exit_ /= 2.0 * lam_arr[:, None]
    exit_ -= sigma2
    enter.fill(0.0)
    z, pen = np.empty((2, n))  # one pair's levels, reused by the next
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # lam/h may overflow
        np.divide(lam_arr[:, None], g, out=cost)
        for i in range(m):
            for j in range(i + 1, m):
                np.subtract(cost[i], cost[j], out=z)
                if mu_arr[i] == mu_arr[j]:
                    np.copyto(enter[i], np.inf, where=z > 0.0)
                    np.copyto(enter[j], np.inf, where=z <= 0.0)
                    continue
                big, small = (i, j) if mu_arr[i] > mu_arr[j] else (j, i)
                np.divide(mu_arr[j] - mu_arr[i], z, out=z)  # negative where overtaken
                np.copysign(np.inf, z, out=pen)
                z *= -0.5
                z -= sigma2  # the crossing level
                np.maximum(z, pen, out=z)
                np.fmin(exit_[big], z, out=exit_[big])
                np.maximum(enter[small], z, out=enter[small])

    np.maximum(exit_, 0.0, out=exit_)
    np.fmin(enter, exit_, out=enter)  # a lost interval collapses to [exit, exit]
    np.subtract(exit_, enter, out=cost)
    np.divide(cost, g, out=powers)
    exit_ += sigma2
    np.divide(exit_, np.add(enter, sigma2, out=enter), out=exit_)
    np.log(exit_, out=exit_)
    exit_ *= 0.5
    return exit_.T, powers.T


def _check_int(name: str, value, low: int) -> None:
    """Raise ``ValueError``, led by ``name``, unless ``value`` is an integer (not a bool) in
    [low, 2**128): seeds are Philox keys, and chunk indices the top half of its counter."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, not {value}")
    if value >= 1 << 128:
        raise ValueError(f"{name} must be below 2**128, not {value}")


def check_run(n_samples: int, seed: int, threads: int) -> None:
    """Raise ``ValueError``, led by the argument's name, unless each is an integer (not a
    bool) below 2**128, n_samples and threads are at least 1 and seed is at least 0."""
    for name, value, low in (("n_samples", n_samples, 1), ("seed", seed, 0), ("threads", threads, 1)):
        _check_int(name, value, low)


def estimate(channel: ChannelConfig, mu, lam, n_samples: int, seed: int,
             threads: int = 1) -> McEstimate:
    """Sample means and standard errors of per-user rates and transmit powers.

    The run takes the chunks two at a time on the calling thread.
    ``threads`` is range-checked like the other arguments and changes
    nothing.
    """
    mu_arr, lam_arr = channel.weights(mu).as_array(), channel.prices(lam).as_array()
    sigma2 = channel.sigma2
    m = channel.n_users
    check_run(n_samples, seed, threads)
    n_chunks = -(-n_samples // CHUNK_SIZE)
    block = np.empty((4, m, _PASS_CHUNKS, CHUNK_SIZE))  # r, r^2, p, p^2, user-major
    flat = block.reshape(4, m, _PASS_CHUNKS * CHUNK_SIZE)
    run = _run_stream(seed), block[1].reshape(_PASS_CHUNKS, CHUNK_SIZE, m)[0]  # r^2 as scratch
    total = 0  # the per-chunk sums, added in chunk order
    for start in range(0, n_chunks, _PASS_CHUNKS):
        chunks = range(start, min(n_chunks, start + _PASS_CHUNKS))
        for c, j in enumerate(chunks):
            state_chunk(channel, seed, j, out=block[2, :, c], _run=run)
        # the last pass may be a slice whose last axis is still contiguous
        rows = n_samples - start * CHUNK_SIZE  # more than the block holds but on the last pass
        work = flat[..., :rows]
        _allocate_chunk(work[2].T, mu_arr, lam_arr, sigma2, out=work)
        np.multiply(work[0], work[0], out=work[1])
        np.multiply(work[2], work[2], out=work[3])
        for c in range(len(chunks)):
            total = total + np.sum(block[:, :, c, :rows - c * CHUNK_SIZE], axis=2)
    sum_r, sum_r2, sum_p, sum_p2 = total

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
        n_samples=int(n_samples),
    )
