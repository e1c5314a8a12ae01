"""Wall-clock normalisation by a fixed pure-Python calibration loop.

The benchmark shares its host with other tenants, so the same pass can
take 6 s or 10 s of wall time.  The interpreter's speed at the moment
of measurement is estimated by timing :func:`_loop` right before and
right after each measured region; the region's wall time is then
scaled by the ratio of that rate to :data:`REFERENCE_RATE`, the loop
rate of an unloaded reference host, raised to :data:`SENSITIVITY`.  A
region measured while the host ran at half speed reads about the same
calibrated seconds as one measured at full speed.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of one calibration loop (about 6 ms on the reference host).
LOOP_ITERS = 60_000

#: Loop iterations per second of the reference host: CPython 3.11 on one
#: core of a shared 2-vCPU x86-64 container, measured unloaded.
REFERENCE_RATE = 1.0e7

#: How much harder contention from other tenants slows the program than
#: the loop, as an exponent: the program's wall time grows as the loop's
#: slowdown to this power.  Fitted over runs taken quiet and loaded on
#: the reference host (1.28 on corpus-startup, 1.29 on suite-replay);
#: with an exponent of 1, calibrated times still rose 8-12% under load.
SENSITIVITY = 1.3


def _loop(n: int) -> int:
    # Integer arithmetic plus a small dict store: the same kind of work
    # (bytecode dispatch, int ops, hashing) the guest interpreter does.
    acc = 0
    table = {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 63] = i
    return acc + len(table)


def loop_rate() -> float:
    """Calibration-loop iterations per second right now."""
    start = time.perf_counter()
    _loop(LOOP_ITERS)
    return LOOP_ITERS / (time.perf_counter() - start)


class Measured:
    """One calibrated region: raw wall time and the loop rates around it."""

    __slots__ = ("raw_s", "rate_before", "rate_after")

    def __init__(self, raw_s: float, rate_before: float, rate_after: float):
        self.raw_s = raw_s
        self.rate_before = rate_before
        self.rate_after = rate_after

    @property
    def rate(self) -> float:
        return (self.rate_before + self.rate_after) / 2.0

    @property
    def factor(self) -> float:
        """Calibrated seconds per raw second for this region."""
        return (self.rate / REFERENCE_RATE) ** SENSITIVITY

    @property
    def seconds(self) -> float:
        """The region's duration in calibrated (reference-host) seconds."""
        return self.raw_s * self.factor


class Meter:
    """Times consecutive regions, one calibration loop between each pair.

    The loop after one region is the loop before the next, so a program
    timed as set-up then run costs three loops, not four.
    """

    def __init__(self) -> None:
        self._rate = loop_rate()

    def time(self, fn: Callable[[], T]) -> Tuple[T, Measured]:
        """Run ``fn``; returns its result and its calibrated timing."""
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        before, self._rate = self._rate, loop_rate()
        return result, Measured(raw, before, self._rate)
