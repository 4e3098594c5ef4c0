"""Wall time of code segments, scaled by the speed of a fixed calibration loop.

On a shared host the speed of plain Python code drifts by ±15 % in phases
of seconds, and run medians drift with it.  The stopwatch runs a fixed
calibration loop before and after each segment it times.  It reports the
segment's wall time `raw` and also `scaled` = raw * REFERENCE_S / (mean of
the two calibration times): the time the segment would take with the loop at
its reference speed.  Both move 1:1 with the program's own cost; only
`scaled` cancels the host's phases.
"""

from __future__ import annotations

import math
import time

# Median time of one calibration loop on the 2-vCPU Intel Xeon host the
# benchmark was tuned on; it only sets the unit of scaled times.
REFERENCE_S = 0.025


def _calibration_loop():
    # Interpreter dispatch, float arithmetic and float allocation, like
    # fntwist's own work.  Floats are not tracked by the garbage collector,
    # so the loop's time does not depend on how many objects the workload
    # keeps alive, and the short lists add nothing to peak memory.
    acc = 0.0
    for _ in range(11):
        items = []
        for i in range(10000):
            x = math.sqrt(i + 1.0) * 1.0000001
            items.append(x)
            acc += x / (i + 2.0)
    return acc


def calibrate() -> float:
    t0 = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - t0


class Stopwatch:
    """Accumulates the raw and scaled time of the segments measured since the last lap()."""

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self._before = calibrate()

    def measure(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        after = calibrate()
        self.raw += elapsed
        self.scaled += elapsed * 2.0 * REFERENCE_S / (self._before + after)
        self._before = after
        return result

    def lap(self):
        """(raw, scaled) seconds since the last lap, and start a new one."""
        lap = (self.raw, self.scaled)
        self.raw = self.scaled = 0.0
        return lap
