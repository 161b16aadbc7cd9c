"""Wall-clock timing corrected for the host's changing speed.

On a shared virtual machine the speed of the same Python code drifts by up
to 1.8x over a few seconds (neighbours contend for the physical cores and
the hypervisor steals time), which swamps any regression bound.
:class:`HostClock` samples that speed while the benchmark runs: a
``SIGALRM`` interval timer interrupts the main thread every ``PERIOD_S``
and times a fixed pure-Python probe, counting its wall time minus the
time the thread waited for a CPU that another process of this machine held.
An interval measured with :meth:`HostClock.ref_seconds` is the wall time it
took, scaled by ``REF_PROBE_S / mean(probe times around it)`` -- the time
it would have taken on a host running the probe in ``REF_PROBE_S``.  Every
time metric the benchmark reports is in these reference seconds;
``speed()`` exposes the factor so raw wall time can be recovered.

The probe runs in the benchmark's own process only (worker and server
processes are not interrupted); it costs about 0.5% of the main thread.
Where the program runs in other threads or processes (the service's
server, the paper build's pool workers and render threads), the benchmark
pins them to the main thread's CPU, so the probe reads the speed of the
CPU the program runs on, and the time it waits for the program is not
counted.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Optional, Tuple

#: timer period between probes
PERIOD_S = 0.05
#: records the probe builds, sorts and files in a dict
PROBE_ITEMS = 600
#: the reference probe duration all timings are scaled to: the fastest the
#: probe ran on the 2-vCPU machine the benchmark was written on
REF_PROBE_S = 175e-6
#: fewest probes a speed is averaged over: those inside the interval, or
#: else the ones nearest to it on either side (about one second of probes)
MIN_PROBES = 20


def _probe_loop() -> float:
    # object allocation, comparisons and dict inserts, like the simulator:
    # on a fixed simulation, corrected with probes over about one second,
    # this left a 2.8% standard deviation of log time where an arithmetic
    # loop left 5.3%
    t0 = time.perf_counter()
    items = [(i * 7919 % 1000, i, float(i)) for i in range(PROBE_ITEMS)]
    items.sort()
    table = {}
    for key, i, x in items:
        table[i] = (key, x)
    return time.perf_counter() - t0


def _open_run_delay():
    """A reader of this thread's run-queue wait in seconds (the second
    field of ``/proc/thread-self/schedstat``), or None where the kernel
    does not expose it."""
    try:
        fh = open("/proc/thread-self/schedstat", "rb")
    except OSError:
        return None, None

    def read() -> float:
        fh.seek(0)
        return int(fh.read().split()[1]) * 1e-9

    return fh, read


class HostClock:
    """Samples host speed in the background; converts intervals to
    reference seconds.  Use as a context manager; it must be entered in the
    main thread (signals are only delivered there)."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._probes: List[float] = []
        self._prev_handler = None
        self._schedstat = self._run_delay = None

    def _on_alarm(self, signum, frame) -> None:
        # wall time minus the time spent waiting for a CPU held by another
        # process (the service's server on this CPU, other tenants): the
        # probe measures the host -- clock speed, cache contention, time
        # stolen by the hypervisor -- not the local scheduler
        read = self._run_delay
        w0 = read() if read else 0.0
        d = _probe_loop()
        if read:
            d -= read() - w0
        self._times.append(time.perf_counter())
        self._probes.append(d)

    def __enter__(self) -> "HostClock":
        self._schedstat, self._run_delay = _open_run_delay()
        self._prev_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._prev_handler or signal.SIG_DFL)
        if self._schedstat is not None:
            self._schedstat.close()

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def _window(self, t0: float, t1: float) -> Tuple[int, int]:
        times = self._times
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and t0 - times[lo - 1] <= times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return lo, hi

    def speed(self, t0: Optional[float] = None,
              t1: Optional[float] = None) -> float:
        """Host speed relative to the reference over [t0, t1] (the whole
        run when omitted): above 1 means faster than the reference."""
        lo, hi = (0, len(self._probes)) if t0 is None else self._window(t0, t1)
        sel = self._probes[lo:hi] or self._probes
        if not sel:
            return REF_PROBE_S / _probe_loop()
        return REF_PROBE_S / (sum(sel) / len(sel))

    def ref_seconds(self, t0: float, t1: float) -> float:
        """The wall interval [t0, t1] in reference seconds.  Call after the
        probes around ``t1`` have been taken (at the end of a run)."""
        return (t1 - t0) * self.speed(t0, t1)
