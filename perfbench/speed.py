"""Host-speed gauge: time a fixed reference kernel while an op runs.

The benchmark shares its host with other tenants, and the speed of its
cores swings by up to 1.6x within seconds and drifts over minutes; process
CPU time swings with it, so neither wall nor CPU time of an op is steady
from run to run.  While an op runs, a SIGALRM timer runs `reference` every
INTERVAL_S seconds on the same thread: a fixed piece of pure-Python dict
work and small numpy products, much like the interpreter-bound part of the
library, that never calls su2drift.  The op's own time excludes these
samples.  The op's time divided by the mean reference time over the op is
its cost in reference units, from which most of the host's speed cancels;
times NOMINAL_REF_S it is the op's time in seconds on a host where the
reference takes NOMINAL_REF_S (on a 2-vCPU Sapphire Rapids Xeon VM it takes
3.3 ms when the host is quiet and 5 ms when it is busy).

Only the op's user-mode time is normalised.  Its kernel time, mostly page
faults on the library's large temporary arrays (a fifth of an mc-oracle op),
swings from op to op in a way the reference does not follow, so it is added
as measured.

A slower program still shows in full, since the reference does not change
with it.  What the gauge cannot remove is a host slowdown that hits the
program and the reference unequally.
"""

from __future__ import annotations

import resource
import signal
import statistics
from time import perf_counter

import numpy as np

#: Seconds between reference samples while an op runs.
INTERVAL_S = 0.1
#: Reference time, in seconds, of the nominal host that normalised times use.
NOMINAL_REF_S = 0.005
#: Untimed reference calls made before the first sample.
WARM_UP = 3

_B = np.linspace(0.0, 1.0, 64).reshape(8, 8)


def reference() -> int:
    """The fixed reference kernel: 3.3 ms on a quiet host, 5 ms on a busy one.

    Its working set is a few kilobytes, so the op it interrupts slows it by
    only 3 to 7 % through the caches.  A kernel that also streams arrays
    tracks mc-oracle better, but the op's own memory traffic slows it by up
    to 1.7x, which would tie the normalisation to the program.
    """
    d = {}
    for i in range(12000):
        key = (i % 97, i % 5)
        d[key] = d.get(key, 0.0) + 0.5 * i
    a = _B
    for _ in range(120):
        a = a @ _B.T
        a = a / (np.abs(a).sum() + 1.0)
    return len(d)


class SpeedGauge:
    """Samples the reference kernel on SIGALRM between begin() and end()."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in the kernel so far, warm-up included
        self._mark = None
        for _ in range(WARM_UP):  # a fresh process's first calls run cold
            start = perf_counter()
            reference()
            self.spent += perf_counter() - start
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        reference()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def begin(self):
        self._mark = (len(self.samples), self.spent, kernel_seconds(), perf_counter())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def end(self) -> tuple:
        """Stop sampling: (own seconds, mean reference seconds, kernel seconds).

        Own seconds since begin() exclude the samples; kernel seconds are
        the process's kernel-mode CPU time over the same window.  A window
        too short for a sample takes one right after it.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        first, spent, kernel, start = self._mark
        own = perf_counter() - start - (self.spent - spent)
        kernel = kernel_seconds() - kernel
        if len(self.samples) == first:
            self._sample()
        return own, statistics.fmean(self.samples[first:]), kernel


def kernel_seconds() -> float:
    """Kernel-mode CPU time of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


def normalised(own: float, ref: float, kernel: float = 0.0) -> float:
    """Nominal seconds for `own` seconds, `kernel` of them in kernel mode."""
    kernel = min(kernel, own)
    return (own - kernel) * NOMINAL_REF_S / ref + kernel
