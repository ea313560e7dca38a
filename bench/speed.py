"""A fixed reference kernel that measures how fast the machine runs now.

On a shared machine the same code runs up to 40% slower or faster from
one stretch of tens of seconds to the next, as other tenants come and go
(measured on a 2-vCPU Xeon VM), which swamps the differences a change
makes. The benchmark therefore runs this kernel between its timed ops
and reports end-to-end times scaled to a machine on which the kernel
takes ``NOMINAL_S``:

    scaled time = measured time * NOMINAL_S / kernel time nearby

The kernel uses numpy only, never confshare, so a change to the program
cannot move it. It mixes what the workloads spend their time on:
interpreter-bound calls on tiny arrays, a mid-size matrix product, and
copies of an array larger than the L2 cache. Work bound by memory rather
than by the processor follows it less closely. Raw times are kept beside
the scaled ones in every result file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.004


class SpeedGauge:
    """Runs the reference kernel between timed pieces of work.

    Each piece is scaled by the median of the kernel passes just before
    and just after it, so a slow spell of the machine scales both alike.
    After a long piece the kernel runs several times, spending up to
    ``SHARE`` of the piece's time, so that one noisy pass weighs less.
    """

    SHARE = 0.02
    MAX_PASSES = 8

    def __init__(self):
        self.tiny = np.full((32, 32), 0.5)
        self.mid = np.full((192, 192), 1.0 / 192)
        self.big = np.ones(1 << 20)  # 8 MiB, more than the L2 cache
        self.copy = np.empty_like(self.big)
        self._pass()  # the first pass pays lazy BLAS and allocator set-up
        self.last = [self._pass() for _ in range(3)]
        self.passes = list(self.last)

    def _pass(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(300):
            acc += float((self.tiny @ self.tiny + self.tiny)[0, 0])
        m = self.mid
        for _ in range(8):
            m = m @ self.mid
        for _ in range(2):
            np.copyto(self.copy, self.big)
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc + m[0, 0] + self.copy[-1]):
            raise FloatingPointError("reference kernel went non-finite")
        return elapsed

    def now(self) -> float:
        """The factor for work done just now, from the last passes only."""
        return NOMINAL_S / statistics.median(self.last)

    def scale(self, work_s: float) -> float:
        """The factor for ``work_s`` seconds of work done since the last call."""
        after = [self._pass()]
        while len(after) < self.MAX_PASSES and sum(after) < self.SHARE * work_s:
            after.append(self._pass())
        self.passes += after
        factor = NOMINAL_S / statistics.median(self.last + after)
        self.last = after
        return factor
