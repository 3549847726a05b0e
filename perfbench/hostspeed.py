"""The host's speed, read from a fixed kernel timed between trials.

On the shared 2-core VM this benchmark was built on, the same trials ran up
to 1.6x faster or slower from one minute to the next, and the host's speed
moved by about 15% from one second to the next. The kernel here is a fixed
set of small numpy/LAPACK calls that shares no code with polylab: a change
to polylab cannot change its time, while a change of the host's speed
changes both. Each trial's wall time is scaled by REFERENCE_MS over the
running median of the kernel times taken around it. That gives the trial's
time at the host speed at which the kernel takes REFERENCE_MS.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median kernel time on the machine the baseline was recorded on, so that
# scaled times read close to its wall times.
REFERENCE_MS = 2.5
# Time the kernel before a trial when this long has passed since it last ran:
# once or twice a round of presets-small and audit, before every trial of
# macaulay-dim.
EVERY_S = 0.1
# Kernel samples in the running median that scales a trial: about a second.
WINDOW = 9

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((20, 20))
_SQUARE = _rng.standard_normal((15, 15))
_TALL = _rng.standard_normal((100, 60))


def kernel_ms() -> float:
    """Wall time of the fixed kernel in ms.

    The garbage collector is held off meanwhile, so the size of polylab's
    heap cannot lengthen it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        for _ in range(8):
            np.linalg.svd(_SMALL)
            np.linalg.eigvals(_SQUARE)
            np.linalg.solve(_SMALL, _SMALL[0])
        np.linalg.svd(_TALL)
        return (time.perf_counter_ns() - t0) / 1e6
    finally:
        if enabled:
            gc.enable()


def scales(kernel_times: list) -> list:
    """REFERENCE_MS over the running median of WINDOW kernel times centred on
    each one; multiply a wall time by the scale of the kernel run before it."""
    h = WINDOW // 2
    return [REFERENCE_MS / statistics.median(kernel_times[max(0, i - h): i + h + 1])
            for i in range(len(kernel_times))]
