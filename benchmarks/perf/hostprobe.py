"""Host-speed probe: a fixed pure-Python loop timed during a measurement.

The shared host this benchmark was defined on (a 2-vCPU x86-64
container) changes speed under other tenants' load: by up to ~20% for
minutes at a time, and by up to ~50% in bursts of seconds.  CPU time
slows with wall time, so this is not preemption.  A fixed loop timed
*during* a repetition slows with it: on ``tpm_training`` its mean time
correlated 0.96 with the repetition's wall time, against 0.61 for the
same loop timed just before and after.  Scaling a measurement by
``NOMINAL_S`` over the probe's mean time during it therefore reports it
at one host speed; the quartile spread of per-repetition times fell
from 15% to 3.5% that way.

The probe fires every 50 ms of process CPU time (``ITIMER_PROF``, whose
tick granularity is plenty at that period) and costs ~1.5% while it
runs; callers subtract :attr:`HostProbe.spent_s` from what they time.
"""

from __future__ import annotations

import signal
import statistics
import time

#: The probe loop's usual time on the container the benchmark was
#: defined on; normalized times are host times at this probe speed.
NOMINAL_S = 0.00075
PERIOD_S = 0.05


def probe_loop_s() -> float:
    """Time one fixed pure-Python loop (~0.75 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class HostProbe:
    """Samples :func:`probe_loop_s` while entered (once on entry, then
    every ``PERIOD_S`` of CPU time).  It owns ``SIGPROF`` while entered;
    samples accumulate across entries."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, *_) -> None:
        t = probe_loop_s()
        self.times.append(t)
        self.spent_s += t

    def __enter__(self) -> "HostProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def normalize(self, host_s: float) -> float:
        """``host_s`` (probe time already taken out) at the nominal host speed."""
        return host_s * NOMINAL_S / statistics.fmean(self.times)
