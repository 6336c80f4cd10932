"""Host speed sampled while a pass runs, to express pass times at a fixed speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-30% over seconds to minutes, while CPU time stays equal to wall time:
the host gets slower, the process is not descheduled.  A pass of
``sweep3-exp`` or ``compare2-mixed`` is one library call of 10-30 s, so
the drift cannot be averaged away between passes.

``Sampler`` measures the drift inside the pass instead.  A SIGALRM every
``INTERVAL_S`` interrupts the main thread between two bytecodes and times a
fixed loop of Python function calls (``spin``, under a millisecond).  The
program's hot path is per-call interpreter overhead, and across processes
on a drifting host its time moved in proportion to this loop's (log-log
slope 1.06), where a loop of integer arithmetic moved 1.5 times less and
one of small numpy operations 1.4 times more.  The pass time
minus the time spent in the handler, scaled by ``REF_SPIN_S`` over the
median loop time, is the pass time on a host where the loop takes
``REF_SPIN_S``: the reference speed.  Samples are skipped while the program
runs threads of its own (the Monte Carlo pool), since the loop would then
time the program's own contention for the cores, not the host.
"""

from __future__ import annotations

import signal
import statistics
import threading
import time
from contextlib import contextmanager

SPIN_ITERS = 7_000
REF_SPIN_S = 0.8e-3   # median time of ``spin`` on the 2-core reference VM
INTERVAL_S = 0.04     # one sample per 40 ms: about 2% of the pass


def _add(a: float, b: float = 1.0) -> float:
    return a + b


def spin() -> float:
    total = 0.0
    for _ in range(SPIN_ITERS):
        total = _add(total, b=0.5)
    return total


class Sampler:
    def __init__(self):
        self.samples: list = []
        self.spent = 0.0   # seconds the handler took, samples skipped included

    def _on_alarm(self, signum, frame):
        started = time.perf_counter()
        if threading.active_count() == 1:
            spin()
            self.samples.append(time.perf_counter() - started)
        self.spent += time.perf_counter() - started

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def at_reference(self, wall: float) -> float:
        """Seconds ``wall`` would have taken at the reference speed, handler time removed."""
        samples = self.samples
        if not samples:  # a pass shorter than one interval, or threaded throughout
            started = time.perf_counter()
            spin()
            samples = [time.perf_counter() - started]
        return (wall - self.spent) * REF_SPIN_S / statistics.median(samples)
