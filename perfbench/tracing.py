"""Span tracing of the calls between macfade's modules, hooked in from outside.

The traced run replaces the module-level names through which one layer
calls the next with wrappers that record a span per call: name, start, end,
parent span, and an operation id shared by every span of one top-level
library call.  An exception is attributed to the span it was raised in:
the hooked calls it merely passes through on its way out record it as an
error but not as their own, so an unconverged inner integral is counted
once and its evaluations are not added to the enclosing outer integral.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the part of it that its child
spans cover.  No file of the program changes, and the timed run installs no
hook at all.

A hooked name that the program no longer has (a layer renamed or folded
away) is reported as missing; the per-layer metrics that depend on it are
left out of the result instead of being reported wrong.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    error: str | None  # type name of the exception that left the call
    raised: bool       # the exception came from this call, not a hooked callee
    info: object


# Info extractors get the call's arguments and its return value, or the
# exception when the call itself raised it (None when one only passed through).
def _evals(args, kwargs, out, error):
    result = out if error is None else getattr(error, "result", None)
    return None if result is None else result.evals


def _solver_work(args, kwargs, out, error):
    return None if out is None else (out.sweeps, out.power_evals)


def _estimate_args(fn):
    signature = inspect.signature(fn)

    def extract(args, kwargs, out, error):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["n_samples"], bound.arguments["threads"]
    return extract


# (module, name, info extractor factory, per-layer metrics that need the hook)
HOOKS = (
    ("cli", "load_config", None, ("cli.load_config_s",)),
    ("boundary", "sweep", None, ("boundary.self_s",)),
    ("boundary", "compare_modes", None, ("boundary.self_s",)),
    ("boundary", "rate_point", None, ("boundary.self_s",)),
    ("boundary", "solve_lambda", lambda fn: _solver_work,
     ("boundary.self_s", "solver.solves", "solver.sweeps", "solver.power_evals",
      "solver.power_evals_per_point", "solver.self_s", "solver.failures")),
    ("boundary", "integrate_or_raise", lambda fn: _evals,
     ("boundary.rate_s", "boundary.self_s", "quadrature.outer_calls",
      "quadrature.outer_evals", "quadrature.outer_self_s", "quadrature.unconverged")),
    ("boundary", "rate_integrand", None,
     ("kernel.rate_integrand_calls", "kernel.self_s", "quadrature.outer_self_s")),
    ("solver", "achieved_power", None,
     ("solver.achieved_power_calls", "solver.achieved_power_s", "solver.self_s")),
    ("solver", "integrate_or_raise", lambda fn: _evals,
     ("solver.self_s", "quadrature.outer_calls", "quadrature.outer_evals",
      "quadrature.outer_self_s", "quadrature.unconverged")),
    ("solver", "power_integrand", None,
     ("kernel.power_integrand_calls", "kernel.self_s", "quadrature.outer_self_s")),
    ("kernel", "integrate_or_raise", lambda fn: _evals,
     ("kernel.self_s", "quadrature.inner_calls", "quadrature.inner_evals",
      "quadrature.inner_evals_per_call", "quadrature.inner_s", "quadrature.unconverged")),
    ("montecarlo", "estimate", _estimate_args,
     ("montecarlo.states", "montecarlo.states_per_s_t1", "montecarlo.states_per_s_t2",
      "montecarlo.allocate_s", "montecarlo.parallel_efficiency_t2")),
    ("montecarlo", "state_chunk", None,
     ("montecarlo.chunks", "montecarlo.draw_s", "montecarlo.allocate_s")),
)

# Per-layer metric -> unit.  Counts repeat exactly from run to run.
LAYER_UNITS = {
    "cli.load_config_s": "s",
    "boundary.points": "count",
    "boundary.points_failed": "count",
    "boundary.rate_s": "s",
    "boundary.self_s": "s",
    "solver.solves": "count",
    "solver.sweeps": "count",
    "solver.power_evals": "count",
    "solver.power_evals_per_point": "evals/point",
    "solver.achieved_power_calls": "count",
    "solver.achieved_power_s": "s",
    "solver.self_s": "s",
    "solver.failures": "count",
    "kernel.power_integrand_calls": "count",
    "kernel.rate_integrand_calls": "count",
    "kernel.self_s": "s",
    "quadrature.inner_calls": "count",
    "quadrature.inner_evals": "count",
    "quadrature.inner_evals_per_call": "evals/call",
    "quadrature.inner_s": "s",
    "quadrature.outer_calls": "count",
    "quadrature.outer_evals": "count",
    "quadrature.outer_self_s": "s",
    "quadrature.unconverged": "count",
    "montecarlo.chunks": "count",
    "montecarlo.states": "count",
    "montecarlo.states_per_s_t1": "states/s",
    "montecarlo.states_per_s_t2": "states/s",
    "montecarlo.draw_s": "s",
    "montecarlo.allocate_s": "s",
    "montecarlo.parallel_efficiency_t2": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_share": "ratio",
}

BOUNDARY_SPANS = ("boundary.sweep", "boundary.compare_modes", "boundary.rate_point")
SOLVER_SPANS = ("boundary.solve_lambda", "solver.achieved_power")
KERNEL_SPANS = ("boundary.rate_integrand", "solver.power_integrand")
OUTER_SPANS = ("boundary.integrate_or_raise", "solver.integrate_or_raise")
QUADRATURE_SPANS = OUTER_SPANS + ("kernel.integrate_or_raise",)


class Tracer:
    """In-memory span recorder; the thread that creates it is the client thread."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._client = threading.get_ident()
        self._client_stack: list = []
        self._local = threading.local()
        # id -> exception for every exception that has left a span; holding
        # the object keeps its id unique for the tracer's lifetime
        self._escaped: dict = {}

    def _stack(self) -> list:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extract=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent, op = stack[-1]
            elif self._client_stack:
                # a worker thread of a pool the client's open call started
                parent, op = self._client_stack[-1]
            else:
                parent, op = None, next(self._ops)
            stack.append((sid, op))
            out = error = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                raised = error is not None and id(error) not in self._escaped
                if error is not None:
                    self._escaped[id(error)] = error
                info = (extract(args, kwargs, out, error if raised else None)
                        if extract else None)
                spans.append(Span(sid, parent, op, name, start, end,
                                  None if error is None else type(error).__name__,
                                  raised, info))
        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


@contextmanager
def hooked(tracer: Tracer):
    """Install every hook that resolves; yield the missing symbols with their metrics."""
    installed = []
    missing = []
    try:
        for module_name, attr, factory, metrics in HOOKS:
            symbol = f"macfade.{module_name}.{attr}"
            try:
                module = importlib.import_module(f"macfade.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append((symbol, metrics))
                continue
            extract = factory(fn) if factory else None
            setattr(module, attr, tracer.wrap(f"{module_name}.{attr}", fn, extract))
            installed.append((module, attr, fn))
        yield missing
    finally:
        for module, attr, fn in reversed(installed):
            setattr(module, attr, fn)


def absent_metrics(missing) -> set:
    return {metric for _, metrics in missing for metric in metrics}


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def layer_metrics(spans, points: int, points_failed: int) -> dict:
    """Per-layer metrics of one traced pass, from its spans and its point counts.

    ``cli.load_config_s`` is not among them: the config is loaded at set-up,
    before any pass.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))

    def named(*names):
        return [s for n in names for s in by_name[n]]

    def busy(*names):
        return sum(s.end - s.start for s in named(*names))

    def self_time(*names):
        return sum((s.end - s.start) - _covered(children[s.sid], s.start, s.end)
                   for s in named(*names))

    def evals(*names):
        return sum(s.info or 0 for s in named(*names))

    solves = by_name["boundary.solve_lambda"]
    power_evals = sum(s.info[1] for s in solves if s.info)
    inner_calls = len(by_name["kernel.integrate_or_raise"])
    inner_evals = evals("kernel.integrate_or_raise")

    estimates = by_name["montecarlo.estimate"]
    serial = [s for s in estimates if s.info[1] == 1]
    threaded = [s for s in estimates if s.info[1] > 1]
    serial_ops = {s.op for s in serial}
    serial_s = sum(s.end - s.start for s in serial)
    threaded_s = sum(s.end - s.start for s in threaded)
    draw_s = sum(s.end - s.start for s in by_name["montecarlo.state_chunk"]
                 if s.op in serial_ops)
    threaded_capacity = sum(s.info[1] * (s.end - s.start) for s in threaded)

    return {
        "boundary.points": points,
        "boundary.points_failed": points_failed,
        "boundary.rate_s": busy("boundary.integrate_or_raise"),
        "boundary.self_s": self_time(*BOUNDARY_SPANS),
        "solver.solves": len(solves),
        "solver.sweeps": sum(s.info[0] for s in solves if s.info),
        "solver.power_evals": power_evals,
        "solver.power_evals_per_point": power_evals / points if points else 0.0,
        "solver.achieved_power_calls": len(by_name["solver.achieved_power"]),
        "solver.achieved_power_s": busy("solver.achieved_power"),
        "solver.self_s": self_time(*SOLVER_SPANS),
        "solver.failures": sum(s.error is not None for s in solves),
        "kernel.power_integrand_calls": len(by_name["solver.power_integrand"]),
        "kernel.rate_integrand_calls": len(by_name["boundary.rate_integrand"]),
        "kernel.self_s": self_time(*KERNEL_SPANS),
        "quadrature.inner_calls": inner_calls,
        "quadrature.inner_evals": inner_evals,
        "quadrature.inner_evals_per_call": inner_evals / inner_calls if inner_calls else 0.0,
        "quadrature.inner_s": busy("kernel.integrate_or_raise"),
        "quadrature.outer_calls": len(named(*OUTER_SPANS)),
        "quadrature.outer_evals": evals(*OUTER_SPANS),
        "quadrature.outer_self_s": self_time(*OUTER_SPANS),
        "quadrature.unconverged": sum(s.error == "QuadratureError" and s.raised
                                      for s in named(*QUADRATURE_SPANS)),
        "montecarlo.chunks": len(by_name["montecarlo.state_chunk"]),
        "montecarlo.states": sum(s.info[0] for s in estimates),
        "montecarlo.states_per_s_t1": (sum(s.info[0] for s in serial) / serial_s
                                       if serial_s else 0.0),
        "montecarlo.states_per_s_t2": (sum(s.info[0] for s in threaded) / threaded_s
                                       if threaded_s else 0.0),
        "montecarlo.draw_s": draw_s,
        "montecarlo.allocate_s": serial_s - draw_s,
        "montecarlo.parallel_efficiency_t2": (serial_s / threaded_capacity
                                              if threaded_capacity else 0.0),
    }


def median_metrics(per_pass: list) -> dict:
    """Metric-wise median over passes (counts are equal in every pass)."""
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
