"""A fixed reference kernel that gauges the host's current speed.

The benchmark runs on a shared host whose speed drifts: the same task can
take half as long again for tens of seconds, in thread CPU time as much as
in wall time, so the drift is in the CPU and not in scheduling.  Longer
runs do not average it away.  The harness therefore runs this kernel once
after every task and a few times after every set-up, and scales each time
by ``REFERENCE_MS`` over the kernel's local time.  The kernel does the kind of
work cbve does today and never changes, so a scaled time moves with cbve's
code and not with the host.  Raw wall times stay in the full record.

The kernel has two parts.  A pure-Python backward sweep (``math`` calls,
tuple unpacking, a closure, dict lookups, numpy element stores) alone
slows more than cbve's tasks when the host does: fitted over 4-second
windows, log task time rose 0.6-0.8 times as fast as log sweep time.  A
numpy sort of 100,000 floats alone slows less (1.5-1.7 times as fast).
Together, at about 2:1 in time, they tracked every workload at 0.9-1.0.
Set-up, which is mostly numpy's import, tracks the kernel at about 0.6, so
scaling takes out only part of the host's drift from ``setup_s``.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

#: a typical kernel time, in ms, on a 2-vCPU Intel Xeon VM (Python 3.11.7,
#: numpy 2.4.6); scaled times are ms at the speed where it takes this long
REFERENCE_MS = 2.5

#: tasks on each side of a task whose kernel times set its scale
HALF_WINDOW = 2

_CELLS = 1200
_ATOMS = {k: (0.3, 0.1, 0.2, 0.05) for k in range(0, _CELLS, 7)}
_UNSORTED = np.sin(np.arange(100_000) * 12.9898) * 43758.5453 % 1.0


def kernel() -> float:
    """A backward scalar sweep over a numpy array, then a sort of a fixed
    array; returns a checksum."""
    v = np.empty((_CELLS + 1, 2))
    v1, v2 = 1.0, 0.5
    v[_CELLS] = v1, v2
    expm1 = math.expm1
    clamped = 0

    def clamp(x: float) -> float:
        nonlocal clamped
        if x >= 0.0:
            return x
        clamped += 1
        return 0.0

    for k in range(_CELLS - 1, -1, -1):
        a = _ATOMS.get(k)
        if a is not None:
            a11, a12, a21, a22 = a
            v1, v2 = clamp(v1 - a11 * v1 + a12 * v2), clamp(v2 + a21 * v1 - a22 * v2)
        for _ in range(2):
            d1 = -0.01 * v1 + 0.02 * expm1(-v2) + 0.001 * v1 * v1
            d2 = -0.02 * v2 + 0.01 * expm1(-v1) + 0.001 * v2 * v2
            v1, v2 = clamp(v1 - 0.5 * d1), clamp(v2 - 0.5 * d2)
        v[k, 0] = v1
        v[k, 1] = v2
    w = np.maximum(v, 0.0)
    return float(w.sum() + np.sort(_UNSORTED)[clamped % 100] + clamped)


def time_kernel() -> float:
    """Seconds taken by one kernel call."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def settled_kernel_s(repeats: int = 15) -> float:
    """Median kernel time after one untimed call (for set-up, which has no
    neighbouring tasks)."""
    kernel()
    return statistics.median(time_kernel() for _ in range(repeats))


def scale(kernel_s: float) -> float:
    """Factor that turns a time measured beside ``kernel_s`` into ms at
    the reference speed, divided by 1e3 (so seconds in, seconds out)."""
    return REFERENCE_MS * 1e-3 / kernel_s


def scaled(times: list, kernel_times: list) -> list:
    """Each time scaled by the median kernel time of the tasks around it."""
    n = len(times)
    out = []
    for i, t in enumerate(times):
        local = kernel_times[max(0, i - HALF_WINDOW): min(n, i + HALF_WINDOW + 1)]
        out.append(t * scale(statistics.median(local)))
    return out
