"""The host's speed, sampled beside the program, to take its drift out of times.

The benchmark's host is a share of a machine whose speed moves by up to half
within seconds and stays there for a minute or more, so two runs of the same
code minutes apart can differ by that much.  `HostSpeed` times a fixed
reference kernel (a product of two small polynomials over `Fraction` held in
dicts, the kind of work the program does, and none of the program's code)
every `CADENCE_S` seconds between jobs.  `factor(start, end)` scales a job
that ran in that interval to a host on which the kernel takes `NOMINAL_S`:
the nominal time over the mean of the kernel times sampled just before and
just after the job.  A change to the program moves the scaled times as much
as the raw ones, and the host's drift moves them far less.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.010   # about the kernel's time on an idle 2-vCPU virtual machine
CADENCE_S = 0.15    # at most this long between samples, but for a job in progress

_OPERAND = {(i, j): Fraction(i + 1, j + 2) for i in range(10) for j in range(10 - i)}


def kernel() -> float:
    """Seconds for one product of two fixed 55-term bivariate polynomials."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        product: dict[tuple[int, int], Fraction] = {}
        for (a, b), c in _OPERAND.items():
            for (d, e), f in _OPERAND.items():
                key = (a + d, b + e)
                product[key] = product.get(key, 0) + c * f
        return perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


class HostSpeed:
    """Kernel samples of one run, in time order."""

    def __init__(self, cadence: float = CADENCE_S):
        self.cadence = cadence
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        self.starts.append(perf_counter())
        self.durations.append(kernel())

    def due(self) -> None:
        """Sample unless the last sample started less than `cadence` ago."""
        if not self.starts or perf_counter() - self.starts[-1] >= self.cadence:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time of the last sample that started
        before `start` and the first that started after `end`."""
        before = bisect.bisect_left(self.starts, start) - 1
        after = bisect.bisect_right(self.starts, end)
        if before < 0 or after == len(self.starts):
            raise ValueError("the interval is not bracketed by samples")
        return NOMINAL_S / statistics.fmean((self.durations[before], self.durations[after]))
