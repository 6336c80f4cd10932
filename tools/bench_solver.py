"""Price-solver work and wall time on fixed scenarios, written to BENCH_solver.json.

Usage:
    python3 tools/bench_solver.py [--parent-src DIR] [--runs K] [--scenario NAME ...] [--out PATH]

Each scenario is one or more library calls on fixed channels:

    compare2-mixed   compare_modes on Exp(1) + U(0.3, 2.5), pbar 1, sigma2 1, mu (0.7, 0.3)
    sweep3-exp       sweep on Exp(0.5/1/2) over simplex_grid(3, 4)
    grid2-acc4       sweep on two Exp(1) users over simplex_grid(2, 10)
    grid3-acc4       sweep on Exp(0.5/1/2) over simplex_grid(3, 7)
    far-start        solve_lambda at mu (0.5, 0.3, 0.2) from every price at 1e-4
    naive-far-start  the same in naive mode
    lopsided         a cold solve_lambda at mu (0.9, 0.05, 0.05) on Exp(0.5/1/2)
    narrow2          cold solves on U(1, 1.001) + U(0.999, 1) at mu (0.5, 0.5), both modes
    narrow3-far      solves on U(1, 1.001), U(0.999, 1) and U(0.9995, 1.0005) at
                     mu (0.3, 0.3, 0.4) from every price at 1e-4, both modes
    corpus           180 solves: Exp(0.5/1/2) and Exp(1) + U(0.3, 2.5), each at five
                     weight vectors, every pbar at 1e-2, 1 and 1e2, both modes, started
                     cold, from every price at 1e-4 and from every price at 1e2

Every user has pbar 1, except in ``corpus``, and sigma2 is 1; the
tolerances are the defaults.  Each scenario records its solves, Newton
steps and power integrals (summed over the solves' ``SolverResult``), the
solves that raised ``SolverError`` or ``QuadratureError`` (``failures``,
which count nothing else), the one-user start's batched integrals and their
one-row integrals (requests whose rows are named "one-user start", 0 where
the tree has none), the outer power requests (``outer_requests``: requests
whose rows are named "outer power integral", one per residual where a
request has a row per user, one per user and residual where it has one
row), and the median wall time of K runs; ``corpus`` also
splits its solves, steps, power integrals and failures by start (``cold``,
``1e-4``, ``1e2``).  Counts repeat exactly from run to run.

Each run is a child process that imports ``macfade`` from one ``src``
directory and runs every chosen scenario once.  With ``--parent-src`` the
runs alternate between that tree and the ``src/`` beside this directory,
the first tree changing from round to round, so slow drift in the host's
speed falls on both alike; the JSON then holds both trees, ``parent`` and
``head`` (the tree beside this directory).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("compare2-mixed", "sweep3-exp", "grid2-acc4", "grid3-acc4",
             "far-start", "naive-far-start", "lopsided", "narrow2", "narrow3-far", "corpus")


def run_scenarios(names) -> dict:
    """Run each named scenario once in this process; counts and wall time per scenario."""
    import numpy as np

    import macfade
    from macfade import boundary, solver
    from macfade.fading import ExponentialGain, UniformGain
    from macfade.kernel import CdfMode, ChannelConfig, UserSpec
    from macfade.quadrature import QuadratureError

    results: list = []
    start = {"batches": 0, "rows": 0, "outer": 0}
    solve, integrate = solver.solve_lambda, solver.integrate_or_raise

    def counted_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        results.append(result)
        return result

    def counted_integrate(req):
        if req.prefix(0).startswith("one-user start"):
            start["batches"] += 1
            start["rows"] += len(req.edges)
        elif req.prefix(0).startswith("outer power integral"):
            start["outer"] += 1
        return integrate(req)

    boundary.solve_lambda = solver.solve_lambda = counted_solve
    solver.integrate_or_raise = counted_integrate

    def channel(gains, pbar=1.0):
        return ChannelConfig(1.0, tuple(UserSpec(g, pbar) for g in gains))

    def exp_channel(means, pbar=1.0):
        return channel([ExponentialGain(m) for m in means], pbar)

    mixed = channel([ExponentialGain(1.0), UniformGain(0.3, 2.5)])
    exp3 = exp_channel((0.5, 1.0, 2.0))
    naive = solver.SolverSettings(mode=CdfMode.NAIVE_ZERO)
    modes = [solver.SolverSettings(mode=mode) for mode in CdfMode]
    far = (1e-4, 1e-4, 1e-4)
    narrow2 = channel([UniformGain(1.0, 1.001), UniformGain(0.999, 1.0)])
    narrow3 = channel([UniformGain(1.0, 1.001), UniformGain(0.999, 1.0),
                       UniformGain(0.9995, 1.0005)])
    corpus = []  # (start, solve)
    for gains, weights in (
            ([ExponentialGain(m) for m in (0.5, 1.0, 2.0)],
             [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.3, 0.2), (0.2, 0.3, 0.5),
              (0.9, 0.05, 0.05), (0.05, 0.05, 0.9)]),
            ([ExponentialGain(1.0), UniformGain(0.3, 2.5)],
             [(0.5, 0.5), (0.7, 0.3), (0.3, 0.7), (0.95, 0.05), (0.05, 0.95)])):
        for mu, pbar, settings, kind in itertools.product(
                weights, (1e-2, 1.0, 1e2), modes, ("cold", "1e-4", "1e2")):
            lam = None if kind == "cold" else (float(kind),) * len(gains)
            corpus.append((kind, functools.partial(
                solver.solve_lambda, mu, channel(gains, pbar), settings, initial_lambda=lam)))
    calls = {
        "compare2-mixed": lambda: boundary.compare_modes(mixed, (0.7, 0.3)),
        "sweep3-exp": lambda: boundary.sweep(exp3, boundary.simplex_grid(3, 4)),
        "grid2-acc4": lambda: boundary.sweep(exp_channel((1.0, 1.0)),
                                             boundary.simplex_grid(2, 10)),
        "grid3-acc4": lambda: boundary.sweep(exp3, boundary.simplex_grid(3, 7)),
        "far-start": lambda: solver.solve_lambda((0.5, 0.3, 0.2), exp3, initial_lambda=far),
        "naive-far-start": lambda: solver.solve_lambda((0.5, 0.3, 0.2), exp3, naive,
                                                       initial_lambda=far),
        "lopsided": lambda: solver.solve_lambda((0.9, 0.05, 0.05), exp3),
        "narrow2": [(None, functools.partial(solver.solve_lambda, (0.5, 0.5), narrow2, settings))
                    for settings in modes],
        "narrow3-far": [(None, functools.partial(solver.solve_lambda, (0.3, 0.3, 0.4), narrow3,
                                                 settings, initial_lambda=far))
                        for settings in modes],
        "corpus": corpus,
    }

    def totals(solved, failures):
        return {"solves": len(solved), "newton_steps": sum(r.sweeps for r in solved),
                "power_integrals": sum(r.power_evals for r in solved), "failures": failures}

    rows = {}
    for name in names:
        results.clear()
        start.update(batches=0, rows=0, outer=0)
        jobs = calls[name] if isinstance(calls[name], list) else [(None, calls[name])]
        solved, failed = {}, {}  # per start: results, failures
        began = time.perf_counter()
        for kind, job in jobs:
            before = len(results)
            try:
                job()
            except (solver.SolverError, QuadratureError):
                failed[kind] = failed.get(kind, 0) + 1
            solved.setdefault(kind, []).extend(results[before:])
        wall = time.perf_counter() - began
        rows[name] = {**totals(results, sum(failed.values())),
                      "start_batches": start["batches"], "start_integrals": start["rows"],
                      "outer_requests": start["outer"], "wall_s": wall}
        if name == "corpus":
            rows[name]["by_start"] = {kind: totals(solved[kind], failed.get(kind, 0))
                                      for kind in solved}
    return {"macfade": macfade.__version__, "numpy": np.__version__, "scenarios": rows}


def child(src: Path, names) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", str(src), *names],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def summary(runs: list, names) -> dict:
    out = {}
    for name in names:
        rows = [run["scenarios"][name] for run in runs]
        counts = {key: rows[0][key] for key in rows[0] if key != "wall_s"}
        if any({key: row[key] for key in counts} != counts for row in rows):
            raise RuntimeError(f"{name}: counts differ between runs")
        out[name] = {**counts, "median_wall_s": round(statistics.median(
            row["wall_s"] for row in rows), 5)}
    return out


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        sys.path.insert(0, sys.argv[2])
        print(json.dumps(run_scenarios(sys.argv[3:])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, default=None)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--scenario", action="append", choices=SCENARIOS)
    parser.add_argument("--out", default=str(ROOT / "BENCH_solver.json"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    names = args.scenario or list(SCENARIOS)
    trees = {"head": ROOT / "src"}
    if args.parent_src is not None:
        trees = {"parent": args.parent_src.resolve(), **trees}
    runs = {label: [] for label in trees}
    for k in range(args.runs):
        for label in (list(trees)[::-1] if k % 2 else list(trees)):
            runs[label].append(child(trees[label], names))
    doc = {
        "runs": args.runs,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "trees": {label: {"macfade": runs[label][0]["macfade"],
                          "numpy": runs[label][0]["numpy"],
                          "scenarios": summary(runs[label], names)} for label in trees},
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for label, tree in doc["trees"].items():
        for name, row in tree["scenarios"].items():
            print(json.dumps({"tree": label, "scenario": name, **row}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
