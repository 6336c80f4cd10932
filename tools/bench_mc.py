"""Monte Carlo estimator throughput on one thread, written to BENCH_mc.json.

Usage:
    python3 tools/bench_mc.py [--states N] [--runs K] [--out PATH]

For m = 1, 2 and 3 exponential users at fixed weights and prices, each
figure is the median of K timed ``montecarlo.estimate`` calls of N states
(default 2^20, K = 9), after one warm-up call per user count.  The
tracemalloc peak of each user count is taken from one more call outside
the timed ones, since tracing slows allocation.  ``allocate_us_per_pass``
is the median time of ``_allocate_chunk`` alone over one two-chunk block
(the stream's first two chunks), restored before each of ALLOCATE_CALLS
timed calls.  ``draw_us_per_chunk`` is the median time of one
``state_chunk`` call inside one more estimate, timed by wrapping the
module global that ``estimate`` calls, outside the timed runs.
The program is imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import macfade  # noqa: E402
from macfade import montecarlo  # noqa: E402
from macfade.fading import ExponentialGain  # noqa: E402
from macfade.kernel import ChannelConfig, UserSpec  # noqa: E402
from macfade.montecarlo import CHUNK_SIZE, _allocate_chunk, estimate, state_chunk  # noqa: E402

SEED = 1
ALLOCATE_CALLS = 301
# (gain means, weights, prices) per user count; every user wins some states
SCENARIOS = {
    1: ((1.0,), (1.0,), (0.3,)),
    2: ((1.0, 1.0), (0.7, 0.3), (0.126, 0.0454)),
    3: ((0.5, 1.0, 2.0), (0.5, 0.3, 0.2), (0.1, 0.06, 0.03)),
}


def timed(channel, mu, lam, states) -> float:
    start = time.perf_counter()
    estimate(channel, mu, lam, states, SEED)
    return time.perf_counter() - start


def peak_kb(channel, mu, lam, states) -> float:
    tracemalloc.start()
    try:
        estimate(channel, mu, lam, states, SEED)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def draw_us_per_chunk(channel, mu, lam, states) -> float:
    walls = []

    def timed_chunk(*args, **kwargs):
        start = time.perf_counter()
        gains = state_chunk(*args, **kwargs)
        walls.append(time.perf_counter() - start)
        return gains

    montecarlo.state_chunk = timed_chunk
    try:
        estimate(channel, mu, lam, states, SEED)
    finally:
        montecarlo.state_chunk = state_chunk
    return statistics.median(walls) * 1e6


def allocate_us_per_pass(channel, mu, lam) -> float:
    m = channel.n_users
    block = np.empty((4, m, 2, CHUNK_SIZE))
    for c in range(2):
        state_chunk(channel, SEED, c, out=block[2, :, c])
    work = block.reshape(4, m, 2 * CHUNK_SIZE)
    gains = work[2].copy()
    mu_arr, lam_arr = np.array(mu), np.array(lam)
    walls = []
    for _ in range(ALLOCATE_CALLS):
        np.copyto(work[2], gains)
        start = time.perf_counter()
        _allocate_chunk(work[2].T, mu_arr, lam_arr, channel.sigma2, out=work)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) * 1e6


def bench(states: int, runs: int) -> list:
    rows = []
    for m, (means, mu, lam) in SCENARIOS.items():
        channel = ChannelConfig(1.0, tuple(UserSpec(ExponentialGain(g), 1.0) for g in means))
        estimate(channel, mu, lam, states, SEED)
        wall = statistics.median(timed(channel, mu, lam, states) for _ in range(runs))
        rows.append({"users": m, "states_per_s": round(states / wall),
                     "median_wall_s": round(wall, 5),
                     "tracemalloc_peak_kb": round(peak_kb(channel, mu, lam, states), 1),
                     "draw_us_per_chunk": round(draw_us_per_chunk(channel, mu, lam, states), 1),
                     "allocate_us_per_pass": round(allocate_us_per_pass(channel, mu, lam), 1)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=1 << 20)
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--out", default=str(ROOT / "BENCH_mc.json"))
    args = parser.parse_args(argv)
    if args.states < 1 or args.runs < 1:
        parser.error("--states and --runs must be at least 1")
    doc = {
        "states": args.states,
        "runs": args.runs,
        "seed": SEED,
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "macfade": macfade.__version__, "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "results": bench(args.states, args.runs),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for row in doc["results"]:
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
