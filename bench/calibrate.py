"""Host-speed calibration: a fixed piece of work timed between measured children.

The benchmark shares a few cores of a host whose speed drifts by 20-40 %
over minutes, in both wall and CPU time, as neighbours come and go. A
measured child's times are divided by the host factor of its own moment:
the mean of the calibration times just before and just after it, over
``REFERENCE_S``. Reported times are thus seconds on a host where this
calibration takes ``REFERENCE_S``; the raw medians are printed alongside.

The work mixes what the ustatlab workloads spend their time on: interpreted
Python float arithmetic and dict updates, many small numpy calls on fresh
Philox generators, and sorts and prefix sums over arrays of a few MB. It
uses neither ustatlab nor any file, so no change to the program moves it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Typical calibration time on the host the bounds were set on (2 vCPUs of an
# Intel Xeon, Python 3.11, numpy 2.4).
REFERENCE_S = 0.65


def _interpreted() -> float:
    total = 0.0
    for i in range(1, 600_000):
        p = i / (i + 3.0)
        total += math.sqrt(p * (1.0 - p) / i) + abs(p - 0.5)
    counts: dict[int, int] = {}
    for i in range(375_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return total + sum(counts.values())


def _small_arrays() -> float:
    total = 0.0
    for key in range(7_500):
        rng = np.random.Generator(np.random.Philox(key=key))
        signs = rng.integers(0, 2, 40) * 2 - 1
        total += float(np.cumsum(signs)[-1])
    return total


def _large_arrays() -> float:
    rng = np.random.Generator(np.random.Philox(key=1))
    total = 0.0
    for _ in range(22):
        values = np.sort(rng.standard_normal(300_000))
        total += float(np.cumsum(values)[-1])
    return total


def calibrate() -> float:
    """Seconds of wall time the fixed calibration work takes now."""
    start = time.perf_counter()
    _interpreted()
    _small_arrays()
    _large_arrays()
    return time.perf_counter() - start
