"""Host-speed probe used to rescale the benchmark's timings.

On a shared host the speed of a core drifts by 20-60% over minutes, far more
than the run-to-run differences the benchmark has to resolve.  Each child
therefore times a fixed loop, independent of rhlab, right after set-up and
again after the run, and the end-to-end times are reported at reference host
speed:

    t_ref = t_wall * REFERENCE_S / t_probe

A change to rhlab does not change ``t_probe``, so it moves ``t_ref`` exactly
as it moves ``t_wall``; a slower or faster host moves both times alike and
cancels.  ``REFERENCE_S`` is the probe's median time on the machine the
benchmark was defined on (a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11,
numpy 2.4), so reference seconds read close to wall seconds there.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 10_000
REFERENCE_S = 0.25


def _loop(n: int) -> float:
    a = np.linspace(0.0, 1.0, 256)
    acc = 0.0
    for i in range(n):
        p = np.pad(a, 1, mode="wrap")
        acc += float(((p[2:] - p[:-2]) * 0.5 + a).sum()) * (i % 7)
    return acc


def probe() -> float:
    """Wall time of the fixed loop: small numpy operations driven from
    Python, the same mix as rhlab's per-ordinate loops."""
    _loop(200)
    start = time.perf_counter()
    _loop(ITERATIONS)
    return time.perf_counter() - start
