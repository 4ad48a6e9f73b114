"""Host-speed calibration of the psiapprox benchmark.

The shared host's CPU speed swings by up to 1.8x over seconds to minutes
(perfbench/README.md, "Host-speed calibration").  A fixed kernel that runs
no library code is timed in the same process, next to the library's work,
and every time is scaled by CAL_NOMINAL_S / (the kernel's time there): a
slower host slows both and cancels, a slower library shows in full.
"""

from __future__ import annotations

import resource
import statistics
import time

CAL_NOMINAL_S = 0.030     # the kernel's typical time on the baseline host
CAL_WINDOW = 5            # calibrations, centred on a step, that scale it
CAL_EVERY_S = 0.5         # step time between calibrations
CAL_POINTS = 1 << 19      # 8 MB in, 8 MB out: well past L2, like the library's grids
CHILD_RUNS = 3            # kernel runs at the end of a fresh child process


class Kernel:
    """An inverse FFT and a sum over its output.  Each run gets fresh
    buffers, filled before the clock starts, so no single placement of
    them in memory sets a whole run's kernel times; the old ones are
    freed first, so the kernel never holds more than 16 MB of them."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = self._out = None
        self.time()                        # first call pays numpy's set-up

    def time(self) -> float:
        np = self._np
        self._x = self._out = None
        self._x = np.arange(CAL_POINTS, dtype=complex)
        self._x *= 0.001j
        np.exp(self._x, out=self._x)
        self._out = np.zeros_like(self._x)
        t0 = time.perf_counter()
        np.fft.ifft(self._x, out=self._out).sum()
        return time.perf_counter() - t0


def child_report() -> dict:
    """Run at the end of a fresh child (set-up probe or CLI command): its
    peak resident set so far, then the median of CHILD_RUNS kernel times
    in this process, and the time all of it took, which the parent takes
    off the child's wall time."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    kernel = Kernel()
    cal_s = statistics.median(kernel.time() for _ in range(CHILD_RUNS))
    return {"cal_s": cal_s, "cal_total_s": time.perf_counter() - t0,
            "peak_rss_mb": peak_rss_mb}


def host_scaled(times: list, cal_at: list, cals: list) -> list:
    """Each time scaled to the reference host: times[i] * CAL_NOMINAL_S /
    (median of the CAL_WINDOW calibrations nearest step i).  cals[k] was
    run right after step cal_at[k]; cal_at is increasing and its last
    entry is the last step."""
    half = CAL_WINDOW // 2
    scaled, k = [], 0
    for i, t in enumerate(times):
        while cal_at[k] < i:
            k += 1
        window = cals[max(0, k - half):k + half + 1]
        scaled.append(t * CAL_NOMINAL_S / statistics.median(window))
    return scaled
