"""The benchmark's one helper thread: machine speed and peak memory.

The sandboxes this runs in share cores with other tenants, and a core's
speed drifts by up to half for seconds at a time.  While jobs run, the
monitor times a fixed reference kernel every PROBE_PERIOD_S seconds, in its
own CPU time, on the CPU the jobs run on (the run pins the process to one
CPU before starting it).  The mean of the samples taken during a job,
relative to REF_NOMINAL_S, is the speed factor of that job.  On request it also polls the resident set size, for
the traced run's bytes-per-state counter.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter, thread_time

# work shaped like the package's exact arithmetic: tuple rows, generator sums
# of products of one- and two-word ints, a small dict
_REF_A = tuple(tuple((7 * i + 13 * j) % 29 - 14 for j in range(12)) for i in range(12))
_REF_B = tuple(tuple((x << 64) + 3 for x in col) for col in zip(*_REF_A))
REF_NOMINAL_S = 1.0e-3
PROBE_PERIOD_S = 0.05
RSS_PERIOD_S = 0.02
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def reference_kernel() -> float:
    """CPU seconds this thread spends on a fixed slice of work."""
    t0 = thread_time()
    for _ in range(3):
        tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in _REF_B) for row in _REF_A)
    table = {}
    for k in range(2000):
        table[k & 127] = k * k
    return thread_time() - t0


def rss_bytes() -> int:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


class Monitor:
    def __init__(self):
        self.samples = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._watch = False
        self._peak = 0
        self._thread = threading.Thread(target=self._run, name="perfbench-monitor", daemon=True)

    def __enter__(self):
        self._probe()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _run(self):
        next_probe = perf_counter()
        while not self._stop.wait(RSS_PERIOD_S if self._watch else PROBE_PERIOD_S):
            if self._watch:
                rss = rss_bytes()
                with self._lock:
                    self._peak = max(self._peak, rss)
            if perf_counter() >= next_probe:
                self._probe()
                next_probe = perf_counter() + PROBE_PERIOD_S

    def _probe(self):
        self.samples.append((perf_counter(), reference_kernel()))

    def speed_factor(self, start: float, end: float, at_least: int = 4) -> float:
        """Mean reference time between two perf_counter readings, relative
        to nominal: 1.5 means the machine ran at two thirds of nominal speed.
        A short interval takes the `at_least` samples nearest to it."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if len(inside) < at_least:
            mid = (start + end) / 2
            inside = [dt for _, dt in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:at_least]]
        return sum(inside) / len(inside) / REF_NOMINAL_S

    def watch_rss(self) -> int:
        """Start tracking the peak resident set size; returns the current one."""
        start = rss_bytes()
        with self._lock:
            self._peak = start
            self._watch = True
        return start

    def peak_rss(self) -> int:
        """Stop tracking and return the peak since `watch_rss`."""
        rss = rss_bytes()
        with self._lock:
            self._watch = False
            return max(self._peak, rss)
