"""Machine-speed calibration for the benchmark's timings.

On a shared cloud VM the same pass can take 1.8x longer from one minute to
the next: the host slows the virtual CPUs down, and wall time and CPU time
both stretch.  A fixed pure-Python loop, timed right before and right
after a pass, slows down by the same factor (measured on a 2-vCPU VM: raw
resume-pass medians ranged over 1.77x across 51 ten-pass windows; divided
by the loop's time they ranged over 1.19x, with a quartile spread of
1.5%).  The benchmark therefore reports every time as *reference
seconds*: the wall time divided by the machine's slowdown against
:data:`REFERENCE_S`.  The loop is the benchmark's own code, so a change to
the program moves the pass and not the loop.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from time import perf_counter
from typing import Callable, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of the calibration loop (about 0.08 s on the reference VM).
LOOPS = 200_000
#: The loop's time on a quiet 2-vCPU cloud VM (Python 3.11): reported
#: times are seconds on a machine that runs the loop this fast.
REFERENCE_S = 0.08


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def _loop() -> float:
    """Time a fixed mix of dict, float, attribute and allocation work."""
    table = {}
    cells = []
    total = 0.0
    start = perf_counter()
    for i in range(LOOPS):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        cell = _Cell(key, total)
        cells.append(cell)
        if len(cells) > 256:
            cells.clear()
        total += cell.value * 1e-12 + table[cell.key] * 1e-9
    return perf_counter() - start


def slowdown() -> float:
    """This machine's current slowdown against the reference (1.0 = as fast).

    The loop runs once on each CPU the process may use, so a pooled pass
    is scaled by the mean speed of the CPUs its workers share.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(_loop())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(times) / REFERENCE_S


def reference_seconds(timed: Callable[[], Tuple[T, float]]) -> Tuple[T, float, float]:
    """Run ``timed`` (returning a result and its wall time) between two
    calibrations; return the result, the time in reference seconds and
    the mean slowdown it was scaled by."""
    before = slowdown()
    result, wall = timed()
    factor = 0.5 * (before + slowdown())
    return result, wall / factor, factor


@contextlib.contextmanager
def one_cpu():
    """Keep single-threaded passes on one CPU, the highest-numbered one.

    On a 2-vCPU VM, resume passes left to migrate spread over 0.18-0.21 s
    (quartiles) within one run, and over 0.234-0.243 s pinned to CPU 1;
    CPU 0 also takes most interrupts.  Pooled passes are never pinned,
    because their workers would inherit the pin.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
