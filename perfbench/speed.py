"""Process CPU clock and a machine-speed reference for timed metrics.

The benchmark shares a host whose speed drifts.  Other tenants take
whole vCPUs (steal time), and they make each instruction slower (shared
cores and caches): the host flips between a fast and a slow mode,
sometimes for seconds, sometimes many times a second.  The same request
can take 100 ms in one mode and 170 ms in the other.  Two measures keep
the end-to-end timings comparable across runs:

* every duration is read from the process CPU clock, which on a
  paravirtualised guest excludes time stolen by the host and time spent
  waiting for a core;
* a fixed reference kernel, which touches nothing in ``repro``, is
  timed before and after every build and request.  The mean of its
  samples taken within 0.3 s of a build or request, over the kernel's
  nominal time, is that interval's *speed factor*.  A duration divided
  by its factor reads as it would on the machine at nominal speed.

Workloads do not all slow down alike: interpreter-bound ones feel the
slow mode more than ones that stream arrays through numpy.  Each
workload therefore names the kernel whose slowdowns track its own
(:data:`REFERENCE_KERNELS`).  The pairing was chosen by timing requests
and candidate kernels side by side while the host changed speed.

A sample sums :data:`REPEATS` calls after one untimed warm-up call, with
the garbage collector off.  An interval averages its samples: a mean,
not a median, which would jump between the modes, trimming the extreme
tenth at each end against interrupts.  A change to the program cannot
move the factor, since the kernels are fixed here and re-warm their own
data before they are timed.
"""

from __future__ import annotations

import gc
import time

import numpy as np

__all__ = ["cpu_clock", "REFERENCE_KERNELS", "SpeedProbe", "REPEATS", "TRIM", "HALFWIDTH_S"]

#: the process CPU clock, in seconds (every thread of the process)
cpu_clock = time.process_time

#: timed calls per sample, after one untimed warm-up call
REPEATS = 2

#: share of samples trimmed at each end before averaging an interval
TRIM = 0.1

#: an interval's factor averages the samples this close to it, in
#: seconds: narrow enough to follow a mode that lasts a few requests
HALFWIDTH_S = 0.3

_SMALL = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) / 32.0
_STREAM: list[np.ndarray] = []  # 8 MiB, made on first use: beyond L2, within L3


def interpreter_kernel() -> float:
    """Python object churn (dict, list and str building) plus 32x32
    numpy calls, in about equal time: the mix of the scalar workloads."""
    table = {}
    for i in range(1500):
        table[i] = [i, str(i & 63)]
    total = sum(len(v[1]) for v in table.values())
    m = _SMALL
    for _ in range(60):
        m = np.tanh(m @ _SMALL + 0.5)
    return total + float(m[0, 0])


def dense_kernel() -> float:
    """An integer loop plus a pass over an 8 MiB array, in about equal
    time: the mix of the dense-scoring workloads."""
    if not _STREAM:
        _STREAM.append(np.linspace(0.0, 1.0, 1 << 20))
    total = 0
    for i in range(22000):
        total += (i * 7) % 13
    return total + float((_STREAM[0] * 1.0001).sum())


#: reference kernels by name, with their mean sample (``REPEATS``
#: calls) on a 2-vCPU x86-64 VM at its usual speed, numpy 2.4, CPython 3.12
REFERENCE_KERNELS = {
    "interpreter": (interpreter_kernel, 2.1e-3),
    "dense": (dense_kernel, 10.0e-3),
}


class SpeedProbe:
    """Reference-kernel samples, taken between the builds and requests of
    one run, and the speed factor they give any interval of it."""

    def __init__(self, kernel: str) -> None:
        self.kernel, self.nominal_s = REFERENCE_KERNELS[kernel]
        #: wall-clock time (``perf_counter``) and CPU seconds of each sample
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.kernel()
            t0 = cpu_clock()
            for _ in range(REPEATS):
                self.kernel()
            took = cpu_clock() - t0
        finally:
            if enabled:
                gc.enable()
        self.times.append(time.perf_counter())
        self.samples.append(took)
        return took

    def factor(self, start: float, stop: float) -> float:
        """Speed factor over the wall-clock interval ``[start, stop]`` (>1:
        slower than nominal): the trimmed mean of the samples within
        :data:`HALFWIDTH_S` of it (at least the two nearest), over the
        kernel's nominal time."""
        times = np.asarray(self.times)
        gap = np.maximum(start - times, times - stop).clip(min=0.0)
        near = gap <= HALFWIDTH_S
        if near.sum() < 2:
            near = np.argsort(gap, kind="stable")[:2]
        samples = np.sort(np.asarray(self.samples)[near])
        cut = int(len(samples) * TRIM)
        return float(samples[cut : len(samples) - cut].mean()) / self.nominal_s
