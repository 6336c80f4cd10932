"""Run one benchmark workload on one seed and print its metrics as JSON.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` next to this directory; nothing is
installed.  ``--trace 0`` times the workload with no hook installed and
reports the end-to-end metrics, times scaled to a reference host speed by
``hostspeed``; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is the result object; the line before it
carries information that is not gated (result digests, versions, load).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracing
from workloads import WORKLOADS, PassOutcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

# Set-up is timed in fresh processes, half before the passes and half after,
# so the probes sample the host at both ends of the run; the reported figure
# is the median probe, each taken at the reference host speed (hostspeed.py).
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60

E2E_UNITS = {
    "setup_s": "s",
    "ref_wall_s": "s",
    "checks_passed_share": "ratio",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    pass


class Api:
    """The program's modules, looked up by attribute so trace hooks apply."""

    def __init__(self):
        if not (SRC / "macfade" / "__init__.py").is_file():
            raise ProgramMissing(f"no macfade package under {SRC}")
        sys.path.insert(0, str(SRC))
        import macfade
        from macfade import boundary, cli, kernel, montecarlo, solver

        if Path(macfade.__file__).resolve().parent != (SRC / "macfade").resolve():
            raise ProgramMissing(f"imported macfade from {macfade.__file__}, not {SRC}")
        self.macfade = macfade
        self.boundary = boundary
        self.cli = cli
        self.kernel = kernel
        self.montecarlo = montecarlo
        self.solver = solver


def _setup_probes(config_path: Path, count: int, checks: list) -> list:
    """(seconds, seconds at reference speed) of import + config parse + channel
    build, each in a fresh process.

    A probe that fails is one failed check; it adds no sample.
    """
    samples = []
    for _ in range(count):
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config_path)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
            wall, at_ref = done.stdout.strip().splitlines()[-1].split()
            samples.append((float(wall), float(at_ref)))
            ok = True
        except (OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
            stderr = getattr(exc, "stderr", None) or ""
            print(f"set-up probe failed: {exc}\n{stderr}", file=sys.stderr)
            ok = False
        checks.append(("set-up probe ran", ok))
    return samples


def _load_config(api, config_path: Path, checks: list):
    """The parsed config, or None after one failed check."""
    try:
        cfg = api.cli.load_config(str(config_path))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        cfg = None
    checks.append(("cli.load_config parses the config", cfg is not None))
    return cfg


def _one_pass(workload, api, cfg, pinned):
    started = time.perf_counter()
    try:
        outcome = workload.run_pass(api, cfg, pinned)
    except Exception as exc:  # a failure in any layer is one failed operation
        traceback.print_exc(file=sys.stderr)
        outcome = PassOutcome(completed=False)
        outcome.check(f"pass raised {type(exc).__name__}: {exc}", False)
    return outcome, time.perf_counter() - started


def failed_checks(outcomes, setup_checks=()):
    """Attempted count and failed labels over the set-up checks and every pass.

    Each further completed pass adds one check: that it repeats the first.
    """
    checks = list(setup_checks) + [c for o in outcomes for c in o.checks]
    completed = [o for o in outcomes if o.completed]
    checks += [(f"completed pass {k + 1} repeats the results of the first", o.digest() ==
                completed[0].digest()) for k, o in enumerate(completed) if k]
    return len(checks), [label for label, ok in checks if not ok]


def timed_run(workload, api, config_path, pinned, seconds):
    checks = []
    probes = _setup_probes(config_path, SETUP_PROBES // 2, checks)
    cfg = _load_config(api, config_path, checks)
    outcomes, walls, ref_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while cfg is not None:
        sampler = hostspeed.Sampler()
        with sampler.sampling():
            outcome, wall = _one_pass(workload, api, cfg, pinned)
        outcomes.append(outcome)
        walls.append(wall)
        ref_walls.append(sampler.at_reference(wall))
        if time.perf_counter() + wall > deadline:
            break
    probes += _setup_probes(config_path, SETUP_PROBES - SETUP_PROBES // 2, checks)
    attempted, failures = failed_checks(outcomes, checks)
    metrics = {}
    if probes:
        metrics["setup_s"] = statistics.median(at_ref for _, at_ref in probes)
    if walls:
        metrics["ref_wall_s"] = statistics.median(ref_walls)
    metrics["checks_passed_share"] = (attempted - len(failures)) / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {"passes": len(walls), "wall_s": walls, "ref_wall_s": ref_walls,
            "setup_probes_s": [wall for wall, _ in probes],
            "setup_probes_ref_s": [at_ref for _, at_ref in probes]}
    return metrics, E2E_UNITS, outcomes, checks, info


def traced_run(workload, api, config_path, pinned, seconds, trace_path):
    tracer = tracing.Tracer()
    checks = []
    with tracing.hooked(tracer) as missing:
        loaded = [_load_config(api, config_path, checks) for _ in range(SETUP_PROBES)]
    cfg = loaded[-1]
    load_s = [s.end - s.start for s in tracer.spans
              if s.name == "cli.load_config" and s.error is None]
    outcomes, untraced, traced, per_pass = [], [], [], []
    deadline = time.perf_counter() + seconds
    while cfg is not None:
        outcome, wall = _one_pass(workload, api, cfg, pinned)
        outcomes.append(outcome)
        untraced.append(wall)
        first_span = len(tracer.spans)
        with tracing.hooked(tracer):
            outcome, wall = _one_pass(workload, api, cfg, pinned)
        outcomes.append(outcome)
        traced.append(wall)
        per_pass.append(tracing.layer_metrics(tracer.spans[first_span:], outcome.points,
                                              outcome.points_failed))
        if time.perf_counter() + untraced[-1] + traced[-1] > deadline:
            break
    tracer.write(trace_path)

    metrics = tracing.median_metrics(per_pass) if per_pass else {}
    if load_s:
        metrics["cli.load_config_s"] = statistics.median(load_s)
    if per_pass:
        u, t = statistics.median(untraced), statistics.median(traced)
        metrics.update({"trace.untraced_wall_s": u, "trace.traced_wall_s": t,
                        "trace.overhead_share": t / u - 1.0})
    absent = tracing.absent_metrics(missing)
    for name in absent:
        metrics.pop(name, None)
    for symbol, names in missing:
        print(f"trace: missing symbol {symbol}; absent metrics: {', '.join(names)}",
              file=sys.stderr)
    info = {"passes_untraced": len(untraced), "passes_traced": len(traced),
            "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT)),
            "missing_symbols": [symbol for symbol, _ in missing],
            "absent_metrics": sorted(absent)}
    return metrics, tracing.LAYER_UNITS, outcomes, checks, info


def _versions(api) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "macfade": getattr(api.macfade, "__version__", None), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    load_start = os.getloadavg()[0]
    try:
        api = Api()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    config, pinned = workload.make(args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    config_path = WORK_DIR / f"{stem}.json"
    config_path.write_text(json.dumps(config, indent=2))
    try:
        if args.trace:
            result = traced_run(workload, api, config_path, pinned, args.seconds,
                                WORK_DIR / f"{stem}.spans.jsonl.gz")
        else:
            result = timed_run(workload, api, config_path, pinned, args.seconds)
    finally:
        config_path.unlink()
    metrics, units, outcomes, setup_checks, run_info = result
    attempted, failures = failed_checks(outcomes, setup_checks)
    first = next((o for o in outcomes if o.completed), None)

    for label in failures:
        print(f"check failed: {label}", file=sys.stderr)
    info = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "inputs": {"config": config, "pinned": pinned},
        "results_sha256": first and first.digest(),
        "analytic_csv_sha256": first and hashlib.sha256(first.analytic_csv.encode()).hexdigest(),
        "mc_csv_sha256": first and hashlib.sha256(first.mc_csv.encode()).hexdigest(),
        **run_info, **_versions(api),
        "loadavg_1min_start": load_start, "loadavg_1min_end": os.getloadavg()[0],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
