"""Machine-speed calibration: a fixed kernel timed alongside the benchmark's jobs.

On a shared VM the same work can run up to 2x slower, in stretches from a
fraction of a second to minutes, because other machines share the CPU.
Process CPU time stretches with wall time, so it is no way out.  A slowdown
stretches every computation in the process alike, so the benchmark times a
fixed kernel that does not touch ``sharpineq`` while its jobs run and divides
the job times by the kernel time around them.  The kernel is what the
program spends most of its time on: adaptive ``scipy.integrate.quad`` over
Python integrands.  Timed in turn with a short ``ko_alpha_scan`` for a
minute on such a VM, its time tracked the scan's one to one (slope 1.0 of
log time against log time over 90 ms windows), where small numpy operations
gave 0.9 and a pure interpreted loop 1.6.

``Sampler`` runs the kernel once every ``PERIOD_S`` of wall time from a
SIGALRM handler, so it also samples the speed inside jobs that take
seconds.  Its ``clock`` leaves the kernel's time out, so job times measured
with it hold program time only.

A time ``t`` measured next to kernel runs of mean time ``c`` is reported as
``t * REF_CHUNK_S / c``: seconds at reference speed, the speed at which one
kernel run takes ``REF_CHUNK_S``.  The reference times are about the kernels'
median times inside the sampler on a 2-vCPU Xeon VM, so reported seconds are
close to measured ones there.  A change to ``sharpineq`` leaves the kernel
unchanged, so it shows in full.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

REF_CHUNK_S = 0.0028
REF_LOOP_S = 0.0009
PERIOD_S = 0.03  # the kernel takes about a tenth of the run
NEIGHBOURS = 2  # kernel runs taken on each side of a job besides those inside it


def loop_work() -> int:
    """The interpreted part of the kernel alone: it needs no imports, so it
    can time set-up, which is itself mostly importing."""
    x = 0
    for i in range(8000):
        x = (x * 31 + i) % 1000003
    return x


def work() -> float:
    """The kernel: scipy is imported by then (set-up did it)."""
    from scipy.integrate import quad

    s = 0.0
    for k in range(20):
        s += quad(lambda r: r ** (k % 6 + 1) * math.exp(-r * r) / (1.0 + r * (k % 3)),
                  0.0, math.inf, epsabs=0.0, epsrel=1e-11)[0]
    return s


def to_reference(seconds: float, chunk_times: list, ref: float = REF_CHUNK_S) -> float:
    """Seconds measured next to kernel runs of `chunk_times`, at reference speed."""
    return seconds * ref / (sum(chunk_times) / len(chunk_times))


class Sampler:
    """Runs the kernel every PERIOD_S seconds from a SIGALRM handler while entered.

    Main thread only.  ``samples`` holds (program clock at start, kernel time).
    """

    def __init__(self, kernel=work, period: float = PERIOD_S):
        self.kernel = kernel
        self.period = period
        self.starts = []
        self.times = []
        self.paused = 0.0
        self._old = None

    def clock(self) -> float:
        """Wall time without the kernel's runs."""
        while True:
            p = self.paused
            t = time.perf_counter()
            if p == self.paused:  # no kernel ran in between
                return t - p

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.starts.append(t0 - self.paused)
        self.times.append(dt)
        self.paused += dt

    def __enter__(self):
        self.kernel()  # warm-up, discarded
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._handler(None, None)  # the span after the last job has one

    def around(self, start: float, end: float) -> list:
        """Kernel times inside [start, end) of the clock, plus NEIGHBOURS on each side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self.times[max(0, lo - NEIGHBOURS):hi + NEIGHBOURS]
