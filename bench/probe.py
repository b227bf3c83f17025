"""Machine-speed adjustment for wall times measured on a shared host.

The benchmark's host slows down by up to 2x for tens of seconds at a time
when other tenants are busy, and the slowdown is not steal time, so CPU
time does not escape it either.  A short probe task, sampled throughout
each timed operation, measures the current speed, and ``SpeedProbe``
converts the operation's wall time to its time on the idle machine.
"""

from __future__ import annotations

import gc
import signal
import time

PROBE_INTERVAL_S = 0.02
# The probe task's time on the idle machine (2.1 GHz Xeon, Python 3.11).
PROBE_NOMINAL_S = 0.001


def probe_task() -> float:
    """Wall time of a fixed pure-Python task that shares no code with
    compatcheck but does the same kind of work: small allocations, string
    formatting and dictionary lookups.  It runs with the collector off so
    that neither the timed operation's heap nor its garbage changes its cost."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[str, tuple] = {}
        for i in range(3000):
            key = f"n{i % 1009}"
            previous = table.get(key)
            table[key] = (key, i, previous[1] if previous else 0)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Times the ``with`` block and samples the machine's speed during it.

    A timer signal runs ``probe_task`` every PROBE_INTERVAL_S in the timed
    thread itself, so no thread is started.  ``spent`` is the probes' own
    time so far.  ``adjusted_s`` is the block's wall time without the
    probes, scaled by PROBE_NOMINAL_S over the mean probe time.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.spent = 0.0
        self.wall_s = 0.0
        self._start = 0.0

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.durations.append(probe_task())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self.durations.append(probe_task())  # one sample even for short blocks
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def scale(self) -> float:
        """Idle-machine seconds per second of the block, probes excluded."""
        return PROBE_NOMINAL_S * len(self.durations) / sum(self.durations)

    @property
    def adjusted_s(self) -> float:
        return (self.wall_s - self.spent) * self.scale
