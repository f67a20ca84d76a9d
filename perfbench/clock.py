"""A clock that reads in reference seconds, steady on a shared machine.

The speed a process gets from a shared machine drifts by tens of percent
within a minute, which no number of samples averages out of a short run.
So every sample process times itself against a fixed probe: a timer signal
runs a small pure-Python kernel every PROBE_PERIOD_S, and the raw time
since the previous probe is scaled by REFERENCE_PROBE_S over the median
duration of the last SMOOTHING probes.  A reading is therefore in seconds
at the speed where the kernel takes REFERENCE_PROBE_S; a change to the
library's code moves it, a busier machine does not.  Time spent in probes
is left out.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import deque

PROBE_PERIOD_S = 0.05
REFERENCE_PROBE_S = 0.002  # fixed: changing it rescales every reading
SMOOTHING = 3  # the factor uses the median of this many probes


def _kernel() -> int:
    # dict and int work like the library's, on objects the collector ignores
    table: dict = {}
    for i in range(13000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
    return len(table)


class CalibratedClock:
    """Reference seconds since `start`, excluding probe time."""

    def __init__(self):
        self._mark = 0.0  # perf_counter at the end of the last probe
        self._total = 0.0  # reference seconds up to _mark
        self.factor = 1.0  # reference seconds per raw second, from the last probe
        self.first_factor = 1.0
        self.probes = 0
        self._recent: deque = deque(maxlen=SMOOTHING)

    def _probe(self, *_):
        t0 = time.perf_counter()
        self._total += (t0 - self._mark) * self.factor
        collecting = gc.isenabled()
        gc.disable()
        try:
            _kernel()
        finally:
            if collecting:
                gc.enable()
        t1 = time.perf_counter()
        self._recent.append(t1 - t0)
        self.factor = REFERENCE_PROBE_S / statistics.median(self._recent)
        self._mark = t1
        self.probes += 1

    def start(self) -> None:
        self._mark = time.perf_counter()
        for _ in range(SMOOTHING):
            self._probe()
        self.first_factor = self.factor
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        while True:  # retry if a probe ran while the reading was taken
            probes = self.probes
            reading = self._total + (time.perf_counter() - self._mark) * self.factor
            if probes == self.probes:
                return reading
