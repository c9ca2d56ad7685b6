"""Host-speed normalization of measured times.

On shared hosts the CPU speed seen by one process drifts by tens of percent
over seconds to minutes, while the kernel reports no steal time.  Raw medians
of 30-second runs then move by 10-20% between runs of identical code, far
more than any bound a regression gate can use.

The benchmark therefore times a fixed probe of its own, which shares no code
with the package, every ``PROBE_EVERY_S`` seconds between operations.  The
drift does not hit all code alike, so each workload uses the probe whose
work is most like its own.  Over 1-second windows on the reference host:

* ``python``, an interpreted float loop, tracks ``solve_p1`` (its time
  divided by the probe's varies by 3-4%, against 14% for the raw time) but
  not the numpy-heavy oracle (12%);
* ``array``, a bisection over a 3600 x 4 numpy array like the oracle's dual
  grid, tracks the oracle (3%) and the CLI sweep (5-6%, against 8% for
  ``python``).

Each operation's time is divided by the host's slowdown around it: the
median time of the probes within ``WINDOW_S`` seconds before or after the
operation, over the probe's reference time.  The window is short because
much of the drift is fast: on the reference host one probe right before an
operation correlates at only 0.6 with it, the mean of the probes on either
side at 0.75.  Reported times are thus seconds on a host that runs
the probe in its reference time; a change to the package moves them as it
moves raw times.  The raw figures are kept in the result file next to them.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.1
WINDOW_S = 1.0

_GAINS = np.linspace(0.1, 5.0, 3600 * 4).reshape(3600, 4)


def python_probe() -> float:
    """Seconds taken by a fixed interpreted float loop."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(6000):
        x = abs(x * 0.5 - i) ** 0.5 + float(i % 7)
    return time.perf_counter() - t0


def array_probe() -> float:
    """Seconds taken by a fixed bisection over a 3600 x 4 array."""
    t0 = time.perf_counter()
    lo = np.zeros_like(_GAINS)
    hi = np.full_like(_GAINS, 10.0)
    for _ in range(6):
        mid = 0.5 * (lo + hi)
        up = _GAINS / (1.0 + _GAINS * mid) + 0.1 / (mid * mid) - 0.5 > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return time.perf_counter() - t0


# probe and its time on the reference host (2 vCPU, Python 3.11.7, numpy 2.4.6)
PROBES = {"python": (python_probe, 1.0e-3), "array": (array_probe, 1.0e-3)}


class Speedometer:
    def __init__(self, kind: str):
        self.probe, self.reference_s = PROBES[kind]
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.probe()  # the first run after package work pays for cold caches
            t = time.perf_counter()
            d = self.probe()
            self.times.append(t + 0.5 * d)
            self.durations.append(d)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.sample()

    def slowdown(self, start: float, end: float, window_s: float = WINDOW_S) -> float:
        """Host slowdown around the interval [start, end]: the median time of
        the probes within ``window_s`` of it, over the reference time."""
        lo = bisect.bisect_left(self.times, start - window_s)
        hi = bisect.bisect_right(self.times, end + window_s)
        if hi <= lo:
            # no probe within the window: use the nearest one
            k = min(max(lo, 0), len(self.times) - 1)
            return self.durations[k] / self.reference_s
        return statistics.median(self.durations[lo:hi]) / self.reference_s
