"""Host speed, so that timings do not swing with a shared machine's load.

The 2-vCPU virtual machine the benchmark targets shares its cores with
other tenants.  Their load makes a CPU-bound Python loop run 10-50%
slower for seconds to minutes at a time, and the loop's thread CPU time
grows exactly as much as its wall time, so measuring CPU time instead
does not help.  What does help is to time a fixed reference kernel in
the benchmark's own process, between pieces of the program's work and
never during them.  A piece of work timed between two samples is scaled
by the kernel's nominal sample time over the samples' mean, which turns
its seconds into seconds on a host of a fixed speed.  There are two
kernels: one of interpreter work for the operation loops, one of
allocation for the builds, each chosen as the one, among those tried,
that tracked that work best (see :func:`cpu_meter`, :func:`memory_meter`).

The program never runs while the kernel does, so the scaling cannot
absorb a change in the program: it only moves with the host.  It suits
CPU-bound work only: time the program spends in timed waits does not
slow down with the host.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Tuple, TypeVar

T = TypeVar("T")

# A sample is the fastest of this many kernel runs, so that an interrupt
# or a preemption during one run does not read as a slow host.
RUNS_PER_SAMPLE = 3

# The single-caller loops sample after the first operation that ends
# this long after the last sample.
INTERVAL_S = 0.2

# Each kernel's nominal sample time: near the quiet end of its range on
# the machine the benchmark was tuned on.  Over 540 CPU samples there,
# the 10th percentile was 1.06 ms and the median 1.52 ms; over 400 memory
# samples, 2.47 ms and 3.15 ms.
CPU_NOMINAL_S = 0.001
MEMORY_NOMINAL_S = 0.0025


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _cpu_kernel(coordinates: List[Tuple[float, float]]) -> int:
    """Integer arithmetic and dict stores, then the skyline of a small
    point set by object creation, a keyed sort and a sweep."""
    total = 0
    table: Dict[int, int] = {}
    for i in range(4_000):
        total += i * i % 7
        table[i % 1000] = total
    points = [_Point(x, y) for x, y in coordinates]
    points.sort(key=lambda p: p.x)
    best = -1.0
    for p in reversed(points):
        if p.y > best:
            best = p.y
            total += 1
    return total


def _memory_kernel() -> int:
    """Allocation: a dict of 10,000 small lists, then 8 MiB of fresh
    memory written page by page."""
    lists = {i: [i, i + 1] for i in range(10_000)}
    pages = bytearray(8 << 20)
    for i in range(0, len(pages), 4096):
        pages[i] = 1
    return len(lists) + len(pages)


class SpeedMeter:
    """Samples of one kernel, in order; :meth:`factor` scales the work
    timed between the last two of them to a host where a sample takes
    ``nominal_s``."""

    def __init__(self, kernel: Callable[[], object], nominal_s: float) -> None:
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.samples: List[float] = []

    def sample(self) -> float:
        """Take one sample; returns the clock when it ended."""
        best = float("inf")
        for _ in range(RUNS_PER_SAMPLE):
            started = time.perf_counter()
            self.kernel()
            ended = time.perf_counter()
            best = min(best, ended - started)
        self.samples.append(best)
        return ended

    def factor(self) -> float:
        """``nominal_s`` over the mean of the last two samples: the work
        timed between them, times this factor, is its nominal time."""
        return 2.0 * self.nominal_s / (self.samples[-2] + self.samples[-1])

    def timed(self, fn: Callable[[], T], seconds: List[float]) -> T:
        """Call ``fn`` between two samples and append its nominal seconds."""
        self.sample()
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        self.sample()
        seconds.append(elapsed * self.factor())
        return result


def cpu_meter() -> SpeedMeter:
    """The meter of the operation loops, which are CPU-bound: on an
    8-minute trace of read-static's read loop, the quartile spread of the
    mean op time of 15-second pieces was 0.28 unscaled and 0.05 scaled by
    this kernel (0.05-0.06 by either half alone, 0.22 by a kernel of
    random reads from a large list)."""
    rng = random.Random(1)
    coordinates = [(rng.random(), rng.random()) for _ in range(1_500)]
    return SpeedMeter(lambda: _cpu_kernel(coordinates), CPU_NOMINAL_S)


def memory_meter() -> SpeedMeter:
    """The meter of set-up builds and recoveries, which mostly allocate:
    over 72 builds of read-static's engine, the spread of medians of five
    was 0.13 scaled by the CPU kernel, 0.14 unscaled and 0.05-0.07 scaled
    by this one."""
    return SpeedMeter(_memory_kernel, MEMORY_NOMINAL_S)
