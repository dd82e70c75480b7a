"""Host-speed probe: how fast this CPU runs a fixed kernel while a run goes on.

On a shared host the same run of the same code takes from 8 to 13 s, because
other tenants slow the core itself (CPU time tracks wall time; little steal
shows).  Those slow phases last from a second to minutes, so a median over a
few runs cannot average them out.  The probe samples the slowdown during the
run instead: every `INTERVAL_S` of wall time a SIGALRM handler in the run's
own process times `kernel()`, a fixed mix of interpreted Python and small
numpy operations like the solvers' inner loops.  The handler runs between
bytecodes of the main thread, so it never interleaves with the program's own
numpy calls, and it changes no result (the traced run, which has no probe,
must hash equal to the probed ones).

    probe = SpeedProbe(); probe.start()
    ...                      # the timed run
    samples = probe.stop()   # kernel times, one per tick

`normalized_wall(wall, samples)` scales the wall time, less the probe's own
time, by `REF_KERNEL_S / mean(samples)`: the run's time at the speed at
which the kernel takes `REF_KERNEL_S`.  The samples are evenly spaced in wall
time, so their mean is the time-averaged slowdown of the core.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds between samples; one kernel costs 1.3-1.8 ms, so the probe takes
#: about 2 % of the run.
INTERVAL_S = 0.1
#: The kernel's time when run alone on the reference machine (2 vCPUs, Xeon
#: at 2.0 GHz, Python 3.11).  It sets the scale of normalized times, nothing
#: else; inside a run the kernel takes longer, as its caches are cold.
REF_KERNEL_S = 1.25e-3

_X = np.linspace(0.0, 1.0, 257)


def kernel() -> float:
    acc = 0.0
    for i in range(8000):
        acc += (i % 7) * 0.5
    x = _X
    for _ in range(100):
        y = np.sqrt(x * x + 1.0)
        x = 0.5 * (x + y / (1.0 + y.sum()))
    return acc + float(x[0])


class SpeedProbe:
    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        for _ in range(20):  # warm the kernel's code paths before timing it
            kernel()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return self.samples


def normalized_wall(wall_s: float, samples: list[float]) -> float:
    """`wall_s` (the probe's own time already taken out) at the reference speed."""
    if not samples:  # a run shorter than one interval: no speed reading
        return wall_s
    return wall_s * REF_KERNEL_S / statistics.fmean(samples)
