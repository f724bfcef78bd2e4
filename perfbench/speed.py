"""The machine's speed, sampled while a pass runs, and times scaled by it.

On a shared host the same pass can take 1.6 times as long from one minute
to the next: other tenants' work slows this one's CPU for stretches of
seconds to minutes, and process CPU time slows with it. A fixed probe,
run from a timer signal every ``INTERVAL_S`` in the thread that does the
work, samples that slowdown while the work runs. Its durations fall in
two modes, fast and about 1.6 times slower, in a mix that changes from
second to second. The probe's speed, ``REFERENCE_PROBE_S`` over its
duration, averaged over a window, is the window's speed relative to the
reference; a time multiplied by it is the work done in that window, in
seconds at the reference speed. The machine's state cancels, the work's
own cost does not. (A median of the durations would jump between the two
modes as the mix passes one half.)

The probe's duration is thread CPU time, so time spent waiting for a CPU
is not counted as slowness. The scaling assumes perfpred keeps one core
busy; a pass that ran work on both cores would slow the probe itself.

Standard library only: the probe starts before numpy and perfpred are
imported, so it covers set-up as well.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
PROBE_ROUNDS = 4000
# The probe's duration in the fast mode on the reference machine (2-vCPU
# VM, Xeon, Python 3.11); a scaled time reads as seconds on that machine
# with no other tenant slowing it.
REFERENCE_PROBE_S = 1.8e-4

_TABLE = [float(i % 17) for i in range(64)]


def probe() -> float:
    """A fixed mix of loop, list and float work; returns its CPU seconds."""
    start = time.thread_time()
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        acc += _TABLE[i & 63] * 1.0001
    return time.thread_time() - start


class Sampler:
    """Probe samples ``(perf_counter at the end, duration)`` taken on SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        d = probe()
        self.samples.append((time.perf_counter(), d))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, lo: float, hi: float) -> float:
        """Mean speed relative to the reference of the samples in [lo, hi].

        A window shorter than the interval may hold no sample; it gets one
        probe run now.
        """
        durations = [d for t, d in self.samples if lo <= t <= hi] or [probe()]
        return statistics.fmean(REFERENCE_PROBE_S / d for d in durations)
