"""Host-speed calibration for the benchmark's clock metrics.

The benchmark's host is shared: identical work run back to back varies by
up to a factor of two in wall and CPU time alike, in spells from seconds
to minutes, because other tenants slow the cores themselves.  A clock
metric taken raw measures those spells as much as the program.

So the benchmark interleaves a fixed reference kernel with the work it
times.  After every timed step it runs the kernel for about ``SHARE`` of
that step's seconds, so the kernel samples the host in proportion to the
measured time and in the same spells.  A measured time is then rescaled
to a host on which one kernel chunk takes ``NOMINAL_S``:

    calibrated = measured * NOMINAL_S * chunks / kernel_seconds

A change that makes domecast slower or faster moves the calibrated time
by the same share as the raw one, since the kernel does not call
domecast; a slow spell slows both, and cancels.  The kernel mixes what
domecast spends its time on: interpreter-level loops over small numpy
calls (as in MH stepping at n = 177) and whole-array numpy math at
n = 10 000 (as in fits on large catalogs).  Reference time is never part
of a measured time.
"""

from __future__ import annotations

import math
import time

import numpy as np

SHARE = 0.1  # kernel seconds per measured second
NOMINAL_S = 0.005  # one chunk's time at the reference host speed
SMALL_CALLS = 500  # small-array calls per chunk

_SMALL = np.random.default_rng(0).random(177) + 0.5
_LARGE = np.random.default_rng(1).random(10_000) + 0.5


def chunk() -> float:
    """One fixed piece of reference work."""
    total = 0.0
    for i in range(SMALL_CALLS):
        a = 0.6 + 0.001 * (i % 7)
        total += float(np.sum(np.log1p(_SMALL / a)) - np.sum(_SMALL)) + math.log(i + 1)
    for a in np.linspace(0.6, 0.8, 10):
        total += float(np.sum(np.log1p(_LARGE / a) * np.exp(-_LARGE)))
    return total


class HostSpeed:
    """Kernel seconds and chunks sampled so far in a run."""

    def __init__(self):
        self.owed = 0.0  # kernel seconds still due for measured work
        self.kernel_s = 0.0
        self.chunks = 0

    def sample(self, seconds: float) -> None:
        """Run the kernel for about ``SHARE * seconds`` just after ``seconds``
        of measured work."""
        self.owed += SHARE * seconds
        while self.owed > 0:
            t0 = time.perf_counter()
            chunk()
            dt = time.perf_counter() - t0
            self.owed -= dt
            self.kernel_s += dt
            self.chunks += 1

    def mark(self) -> tuple[float, int]:
        return self.kernel_s, self.chunks

    def factor_since(self, mark: tuple[float, int]) -> float:
        """Reference-speed seconds per measured second over the chunks run
        since ``mark``."""
        kernel_s, chunks = self.kernel_s - mark[0], self.chunks - mark[1]
        return NOMINAL_S * chunks / kernel_s
