"""Machine-speed probe for scaling the benchmark's timings.

On a shared host the same work can take up to twice as long from one
stretch of seconds to the next, while the process is never descheduled
(CPU time tracks wall time). Timings are therefore scaled by the speed a
fixed probe measures at each phase boundary and every 500 training steps
(see `workloads.Clock` and `workloads.split_training`):

    scaled = raw * PROBE_REF_S / mean(probe before, probe after)

The probe is the benchmark's own code and never calls tripletkit, so a
change to the program moves the raw time and leaves the probe alone. It
mixes small NumPy calls with interpreter work, as tripletkit's steps do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on an idle 2-vCPU Intel Xeon VM (Python 3.11, NumPy 2.4).
# Only the ratio matters: it sets the speed scaled timings are quoted at.
PROBE_REF_S = 0.008
PROBE_RUNS = 5
KERNEL_REPS = 5

_rng = np.random.default_rng(1703)
_X = _rng.standard_normal((72, 64))
_W1 = 0.1 * _rng.standard_normal((64, 256))
_W2 = 0.1 * _rng.standard_normal((256, 128))
_G = _rng.standard_normal((3000, 16))


def _kernel() -> int:
    h = _X @ _W1
    h = np.where(h > 0, h, 0.3 * h)
    e = h @ _W2
    sq = (e * e).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (e @ e.T)
    np.maximum(d, 0.0, out=d)
    np.percentile(d, (5, 50, 95))
    for q in _G[:3]:
        np.argsort(np.sqrt(((_G - q) ** 2).sum(axis=1)), kind="stable")
    total = 0
    for i in range(1500):
        total += i % 7
    return total


def probe() -> float:
    """Median wall time of PROBE_RUNS runs of the fixed kernel, in s."""
    times = []
    for _ in range(PROBE_RUNS):
        start = time.perf_counter()
        for _ in range(KERNEL_REPS):
            _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
