"""Machine-speed reference: a fixed pure-Python kernel timed between ops.

The shared 2-core host this benchmark was tuned on changes speed by up to a
half from one stretch of seconds to the next.  CPU time tracks wall time
through it, so the process is not descheduled: the same instructions simply
run slower while neighbours load the machine.  A 30 s run cannot average that
out, and its medians moved by 10-30% from run to run on identical code.

So the worker times this kernel every EVERY_S seconds, between ops and
outside their timing.  Each measured time is divided by the machine's
slowdown at that moment: the median kernel time of the NEAREST samples around
it over NOMINAL_S.  The kernel never changes, so a change to parabolica moves
the scaled times as much as the raw ones, and the machine's drift largely
cancels.  Raw times are kept beside the scaled ones in every record.

Nothing here imports parabolica, and the kernel uses only the standard
library, so the program under test cannot change its cost.
"""
from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Kernel time on the fast state of the 2-core x86-64 VM the benchmark was
# tuned on.  Scaled times read as milliseconds on a machine that runs the
# kernel this fast.
NOMINAL_S = 0.0012
EVERY_S = 0.1  # at most one kernel run per this much time: about 1.3% overhead
NEAREST = 25  # samples whose median gives the slowdown at one moment


def kernel() -> int:
    """Fixed work of the kind the exact side does: Fraction sums, tuple keys, dicts."""
    total = Fraction(0)
    for i in range(1, 250):
        total += Fraction(i % 7 + 1, i)
    table: dict[tuple[int, int, int], int] = {}
    for i in range(800):
        key = (i % 13, i % 11, i % 7)
        table[key] = table.get(key, 0) + i
    return total.numerator % 97 + len(table)


class SpeedLog:
    """Kernel samples of one run, and the slowdown they give at any moment."""

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoint of each sample, perf_counter seconds
        self.took: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)
        self.last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def slowdown(self, moment: float) -> float:
        """Median kernel time of the NEAREST samples around ``moment``, over NOMINAL_S."""
        count = len(self.at)
        if count == 0:
            raise ValueError("no kernel samples were taken")
        index = bisect.bisect_left(self.at, moment)
        lo = max(0, min(index - NEAREST // 2, count - NEAREST))
        return statistics.median(self.took[lo : lo + NEAREST]) / NOMINAL_S

    def summary(self) -> dict[str, float]:
        return {
            "samples": len(self.took),
            "median_ms": statistics.median(self.took) * 1e3,
            "min_ms": min(self.took) * 1e3,
            "max_ms": max(self.took) * 1e3,
            "nominal_ms": NOMINAL_S * 1e3,
        }

