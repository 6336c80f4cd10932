"""Self-checks of the benchmark itself.

Usage: python3 perfbench/selftest.py

1. Determinism: two traced runs on one seed report identical count metrics
   (calls, evals, sweeps, power evals, chunks, states) for each workload.
2. Names: the metrics printed match BENCHMARK.json, name for name and unit
   for unit, for both --trace 0 and --trace 1.
3. Renamed layers: a hooked name the program lacks is reported as missing,
   its metrics are left out, the other hooks still work and every hook is
   removed again afterwards.
4. No program: in a directory holding only BENCHMARK.json and this
   directory, run.py exits non-zero without printing a result.
5. Error attribution: an unconverged inner integral that propagates out of
   an outer one is counted once, and its evaluations stay with the inner
   integral.
6. Host-speed sampler: it samples while only the main thread runs, skips
   while another thread is alive, and leaves no timer or handler behind.

Exits 0 when every check passes.  A full run takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import run
import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COUNT_UNITS = {"count", "evals/point", "evals/call"}
RUN_TIMEOUT_S = 600
SEED = 7


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def _result(done) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"run.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_determinism_and_names(seed: int) -> None:
    for workload in WORKLOADS:
        first, second = (_result(_run(workload, seed, trace=1)) for _ in range(2))
        assert _units(first) == _declared("per_layer"), f"{workload}: per-layer names differ"
        counts = {name for name, unit in _units(first).items() if unit in COUNT_UNITS}
        differ = {name: (first["metrics"][name]["value"], second["metrics"][name]["value"])
                  for name in counts
                  if first["metrics"][name] != second["metrics"][name]}
        assert not differ, f"{workload}: counts differ between traced runs: {differ}"
        print(f"ok: {workload}: {len(counts)} count metrics repeat exactly")
    timed = _result(_run("mc2-exp", seed, trace=0))
    assert _units(timed) == _declared("end_to_end"), "end-to-end names differ"
    print("ok: printed metric names and units match BENCHMARK.json")


def check_missing_symbol(seed: int) -> None:
    symbol = ("solver", "renamed_away", None, ("solver.power_evals",))
    api = run.Api()
    originals = {(m, a): getattr(getattr(api, m), a) for m, a, _, _ in tracing.HOOKS}
    saved = tracing.HOOKS
    tracing.HOOKS = saved + (symbol,)
    workload = WORKLOADS["mc2-exp"]
    config, pinned = workload.make(seed)
    run.WORK_DIR.mkdir(exist_ok=True)
    config_path = run.WORK_DIR / f"selftest-{seed}.json"
    config_path.write_text(json.dumps(config))
    try:
        metrics, _, outcomes, setup_checks, info = run.traced_run(
            workload, api, config_path, pinned, 0.0, run.WORK_DIR / "selftest.spans.jsonl.gz")
    finally:
        tracing.HOOKS = saved
        config_path.unlink()
    assert info["missing_symbols"] == ["macfade.solver.renamed_away"], info
    assert "solver.power_evals" not in metrics
    assert metrics["quadrature.inner_calls"] > 0 and metrics["montecarlo.chunks"] > 0
    attempted, failures = run.failed_checks(outcomes, setup_checks)
    assert attempted > 0 and not failures, failures
    restored = {(m, a): getattr(getattr(api, m), a) for m, a, _, _ in tracing.HOOKS}
    assert restored == originals, "a hook was left installed"
    print("ok: a missing hooked name is named, its metrics are absent, hooks are removed")


def check_without_program() -> None:
    bare = run.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run("mc2-exp", 1, trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "run.py succeeded without the program"
    assert '"metrics"' not in done.stdout, "run.py printed a result without the program"
    print(f"ok: without the program run.py exits {done.returncode} and prints no result")


def check_error_attribution() -> None:
    api = run.Api()
    quadrature = api.macfade.quadrature
    failed = quadrature.IntegrationResult(0.0, 1.0, 45, False)
    tracer = tracing.Tracer()

    def inner():
        raise quadrature.QuadratureError("inner integral did not converge", failed)

    def outer():
        return inner()

    inner = tracer.wrap("kernel.integrate_or_raise", inner, tracing._evals)
    outer = tracer.wrap("solver.integrate_or_raise", outer, tracing._evals)
    try:
        outer()
    except quadrature.QuadratureError:
        pass
    metrics = tracing.layer_metrics(tracer.spans, points=0, points_failed=0)
    assert metrics["quadrature.unconverged"] == 1, metrics["quadrature.unconverged"]
    assert metrics["quadrature.inner_evals"] == 45, metrics["quadrature.inner_evals"]
    assert metrics["quadrature.outer_evals"] == 0, metrics["quadrature.outer_evals"]
    print("ok: an unconverged inner integral is counted once, where it failed")


def check_host_speed_sampler() -> None:
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler()
    started = time.perf_counter()
    with sampler.sampling():
        while time.perf_counter() < started + 0.3:
            pass
    wall = time.perf_counter() - started
    assert sampler.samples, "no sample during a busy main thread"
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "timer left running"
    assert signal.getsignal(signal.SIGALRM) is previous, "handler left installed"
    assert 0.0 < sampler.at_reference(wall), "no time at the reference speed"

    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    taken = len(sampler.samples)
    sampler._on_alarm(signal.SIGALRM, None)
    release.set()
    worker.join()
    assert len(sampler.samples) == taken, "sampled while another thread was alive"
    print(f"ok: host-speed sampler took {taken} samples alone, none beside another thread")


def main() -> int:
    check_host_speed_sampler()
    check_error_attribution()
    check_without_program()
    check_missing_symbol(SEED)
    check_determinism_and_names(SEED)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
