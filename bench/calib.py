"""Machine-speed calibration for the benchmark's timings.

On a few shared vCPUs the speed of a CPU drifts by half within seconds to
minutes, and a process's CPU time drifts with its wall time, so the same
work can take twice as long in one minute as in the next. Timings are
therefore scaled to a reference speed. A ``Sampler`` thread of the
benchmark times a short fixed loop every PERIOD_S, in its own CPU time,
on the one CPU that the run and all its children are pinned to; ``scale``
turns an interval into seconds at the speed where the loop takes
``REF_S``, by the loops timed during that interval. The program's own
speed moves the scaled time by the same factor as the raw time; another
process sharing the CPU is not corrected for. Intervals are stamped with
``time.monotonic()``, one clock for all processes.
"""

import bisect
import statistics
import threading
import time

LOOP_ITERS = 15_000
PERIOD_S = 0.1
# about the loop's median CPU time on 2 shared vCPUs (Intel Xeon, 2.0 GHz),
# Python 3.11.7, where it ranged over 0.0025 to 0.007 s within minutes
REF_S = 0.0035


def loop_s() -> float:
    """CPU time of one fixed loop of dict updates and integer arithmetic."""
    t0 = time.thread_time()
    d = {}
    for i in range(LOOP_ITERS):
        d[i % 977] = d.get(i % 977, 0) + i
    return time.thread_time() - t0


class Sampler:
    """Times ``loop_s`` every PERIOD_S in a background thread while open."""

    def __init__(self):
        self.stamps = []  # time.monotonic() at the end of each loop
        self.loops = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _record(self):
        self.loops.append(loop_s())
        self.stamps.append(time.monotonic())

    def _sample(self):
        while not self._stop.wait(PERIOD_S):
            self._record()

    def __enter__(self):
        self._record()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """``t1 - t0`` at the reference speed, by the mean of the loops
        timed in [t0, t1], or by the loop nearest to an interval too short
        to hold one."""
        n = len(self.stamps)
        lo = bisect.bisect_left(self.stamps, t0, 0, n)
        hi = bisect.bisect_right(self.stamps, t1, 0, n)
        if lo < hi:
            loop = statistics.fmean(self.loops[lo:hi])
        else:
            mid = (t0 + t1) / 2
            near = min((i for i in (lo - 1, lo) if 0 <= i < n),
                       key=lambda i: abs(self.stamps[i] - mid))
            loop = self.loops[near]
        return (t1 - t0) * REF_S / loop
