"""Machine-speed normalization.

On a shared VM the same pure-Python loop runs up to 40% slower for tens of
seconds at a time, and the library slows with it. Raw times therefore drift
far more between runs than any bound allows. The benchmark samples the
speed of a fixed reference loop throughout each run and reports times in
reference seconds: each measured time scaled by the loop's nominal duration
over the median duration sampled during and around it. On a machine where
the loop takes its nominal time, reference seconds are seconds. The raw
values stay in the run record.

Each workload's loop is the kind of work its items spend their time on.
Measured on a shared 2-core VM over ten seeds each, a small-integer loop
tracked `symfun` (cycle-grouped products of small integers) best, and a
loop that adds tuple and dict churn and big-integer multiplication tracked
`gram` (big-integer elimination) and `verify` best. The loops share no code with
the library, so no change to the library can move them.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Sampling period of Probe; each sample costs about 1% of it.
PERIOD_S = 0.2
# Samples this close to an item set its speed: speed also jitters within a
# second, which one median per run would leave in short items.
WINDOW_S = 0.5
# Prefix of the stderr line on which a CLI process reports its samples.
MARK = "perfbench-probe "


def integer_loop():
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def mixed_loop():
    pairs = [(i, i * i) for i in range(3000)]
    index = {pair: pair[0] for pair in pairs}
    s = 0
    for i in range(6000):
        s += i * i % 7
    x, m = 7**600, 11**590 + 1
    y = x
    for _ in range(60):
        y = y * x % m
    return s + len(index) + y


# Workload: (reference loop, its nominal duration in seconds, about its
# median on a shared 2-core VM (Python 3.11) when the host is quiet).
REFERENCE = {
    "symfun": (integer_loop, 0.0012),
    "gram": (mixed_loop, 0.0015),
    "verify": (mixed_loop, 0.0015),
}


def time_reference(workload):
    # The loop's garbage is freed before it returns; with collection off it
    # also leaves the library's collection schedule as it found it.
    loop = REFERENCE[workload][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(workload, samples):
    """Factor that turns seconds into reference seconds, given durations of
    the workload's reference loop."""
    return REFERENCE[workload][1] / statistics.median(samples)


class Probe:
    """Times the workload's reference loop every PERIOD_S from SIGALRM, in
    the main thread, while the workload runs. `samples` holds (start,
    duration) pairs on the perf_counter clock. `total` is the time spent
    sampling, so items timed in the same thread can leave it out."""

    def __init__(self, workload):
        self.workload = workload
        self.samples = []
        self.total = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        dt = time_reference(self.workload)
        self.samples.append((t0, dt))
        self.total += dt

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def merge(self, samples, total):
        """Add samples taken in another process; perf_counter is the
        system-wide monotonic clock, so their times compare with ours."""
        self.samples += [tuple(s) for s in samples]
        self.total += total

    def scale(self, start, end):
        """Factor for seconds spent in [start, end], from the samples within
        WINDOW_S of it (all samples if none are)."""
        near = [dt for t, dt in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return scale(self.workload, near or [dt for _, dt in self.samples])
