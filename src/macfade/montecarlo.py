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
out.  Winning [z_lo, z_hi] earns rate 0.5*ln((sigma2+z_hi) / (sigma2+z_lo))
and costs transmit power (z_hi - z_lo)/h_i.

Randomness is counter-based: chunk j of a run draws its gains from
Philox(key=seed, counter=j << 128), and the estimate adds per-chunk partial
sums in chunk order, so any parallel split over whole chunks reproduces the
serial result bit for bit.  The chunk size is therefore part of the stream
contract, not a tuning knob.

Work is handed out in tasks of consecutive whole chunks, as many as fit
a 512 KB task buffer (the partial final chunk is a task of its own).
Each chunk is drawn and allocated user-major, one contiguous row of states
per user, and writes its r, r^2, p and p^2 columns into the task buffer;
one ``np.sum`` per task then yields every chunk's column sums.  The sum
order is the contract that keeps the bytes: for two or more users each
column is added row by row in sequence, for one user each column is summed
pairwise (numpy's order for a contiguous vector), and the per-chunk
partials are added in chunk order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernel import ChannelConfig

__all__ = [
    "McEstimate",
    "CHUNK_SIZE",
    "state_chunk",
    "estimate",
]

CHUNK_SIZE = 4096
# A task's buffer holds r, r^2, p and p^2 for every state of its chunks.
# At 512 KB a 2-user task takes two chunks; 1 MB buffers (four chunks)
# raised peak memory by about 1 MB more for no clear gain in speed.
TASK_BYTES = 1 << 19


@dataclass(frozen=True)
class McEstimate:
    rates: tuple
    powers: tuple
    rate_se: tuple
    power_se: tuple
    n_samples: int


def _chunk_rng(seed: int, chunk_index: int):
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk_index << 128))


def state_chunk(channel: ChannelConfig, seed: int, chunk_index: int) -> np.ndarray:
    """Gains (CHUNK_SIZE, n_users) of chunk ``chunk_index`` of the run's stream.

    Column k is user k's inverse-cdf transform of its uniform column, and
    each column is contiguous in memory.  Exact zeros (a probability-zero
    event) are redrawn from the same substream.
    """
    rng = _chunk_rng(seed, chunk_index)
    laws = [user.fading for user in channel.users]
    u = rng.random((CHUNK_SIZE, len(laws)))
    gains = np.empty((len(laws), CHUNK_SIZE))
    for k, law in enumerate(laws):
        gains[k] = law._quantile_raw(u[:, k])
    while True:
        zero = gains == 0.0
        if not np.any(zero):
            break
        fresh = rng.random(int(np.count_nonzero(zero)))
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
    of the pair pays more per unit of gain, the other overtakes it past the
    crossing: the crossing caps the larger-mu user's interval from above
    and opens the other's from below.  Elsewhere the smaller-mu user never
    wins.  Equal mu gives parallel lines: the cheaper user wins throughout,
    the lower index on a tie.  The user's own positivity root caps its
    interval too.  These are the numbers the sort-and-argmax partition cuts
    at, so rates and powers match it bit for bit on continuous draws.

    The maths runs on user-major (m, n) arrays, so it is fastest when each
    column of ``gains`` is contiguous, as ``state_chunk`` lays them out.
    ``out`` is a (4, m, n) work array: the rates land in out[0] and the
    powers in out[2], and out[1] and out[3] serve as scratch.  The (n, m)
    results are views of it.
    """
    g = gains.T
    m, n = g.shape
    work = np.empty((4, m, n)) if out is None else out
    exit_, cost, powers, enter = work  # exit_ becomes the rates
    np.divide(lam_arr[:, None], g, out=cost)
    np.multiply(mu_arr[:, None], g, out=exit_)  # the positivity roots
    exit_ /= 2.0 * lam_arr[:, None]
    exit_ -= sigma2
    enter.fill(0.0)
    alive = np.ones((m, n), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            d = cost[i] - cost[j]
            if mu_arr[i] == mu_arr[j]:
                alive[i] &= d <= 0.0
                alive[j] &= d > 0.0
                continue
            if mu_arr[i] > mu_arr[j]:
                big, small, overtaken = i, j, d > 0.0
            else:
                big, small, overtaken = j, i, d < 0.0
            z = d  # the crossing level, in place
            with np.errstate(divide="ignore"):
                np.divide(mu_arr[i] - mu_arr[j], d, out=z)
            z *= 0.5
            z -= sigma2
            np.minimum(exit_[big], np.where(overtaken, z, np.inf), out=exit_[big])
            # where not overtaken, small is knocked out and its enter unused
            np.maximum(enter[small], z, out=enter[small])
            alive[small] &= overtaken

    lost = ~(alive & (enter < exit_))
    lo, hi = enter, exit_
    np.copyto(lo, 0.0, where=lost)
    np.copyto(hi, 0.0, where=lost)
    np.subtract(hi, lo, out=powers)
    np.divide(powers, g, out=powers)
    rates = hi
    rates += sigma2
    np.divide(rates, np.add(lo, sigma2, out=lo), out=rates)
    np.log(rates, out=rates)
    rates *= 0.5
    return rates.T, powers.T


def estimate(channel: ChannelConfig, mu, lam, n_samples: int, seed: int,
             threads: int = 1) -> McEstimate:
    """Sample means and standard errors of per-user rates and transmit powers.

    Estimates are bit-identical for any thread count.
    """
    mu_arr, lam_arr = channel.weights(mu).as_array(), channel.prices(lam).as_array()
    sigma2 = channel.sigma2
    m = channel.n_users
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not (isinstance(threads, int) and threads >= 1):
        raise ValueError(f"threads must be an integer of at least 1, not {threads!r}")
    per_task = max(1, TASK_BYTES // (CHUNK_SIZE * 4 * m * 8))
    full, rest = divmod(n_samples, CHUNK_SIZE)
    tasks = [range(j, min(j + per_task, full)) for j in range(0, full, per_task)]
    if rest:
        tasks.append(range(full, full + 1))

    def run(chunks):
        # The sum order of the module docstring: np.sum over axis 0 adds the
        # rows of a (rows, count, 4m) buffer in sequence.  With one user each
        # column is kept contiguous instead, and numpy sums it pairwise.
        rows = min(CHUNK_SIZE, n_samples - chunks.start * CHUNK_SIZE)
        count = len(chunks)
        if m == 1:
            buf = np.empty((count, 4, rows)).transpose(2, 0, 1)
        else:
            buf = np.empty((rows, count, 4 * m))
        block = np.empty((4, m, rows))  # r, r^2, p, p^2 of one chunk, user-major
        for k, j in enumerate(chunks):
            gains = state_chunk(channel, seed, j)[:rows]
            _allocate_chunk(gains, mu_arr, lam_arr, sigma2, out=block)
            np.multiply(block[0], block[0], out=block[1])
            np.multiply(block[2], block[2], out=block[3])
            buf[:, k] = block.reshape(4 * m, rows).T
        return np.sum(buf, axis=0).reshape(count, 4, m)

    # Worker w runs every workers-th task from task w.  The calling thread is
    # worker 0, so a run holds one thread's working memory fewer than a pool
    # of ``threads`` would.
    workers = min(threads, len(tasks))

    def share(w):
        return [run(chunks) for chunks in tasks[w::workers]]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            futures = [pool.submit(share, w) for w in range(1, workers)]
            shares = [share(0)] + [future.result() for future in futures]
    else:
        shares = [share(0)]
    total = 0  # the per-chunk partials, added in chunk order
    for t in range(len(tasks)):
        for part in shares[t % workers][t // workers]:
            total = total + part
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
        n_samples=n_samples,
    )
