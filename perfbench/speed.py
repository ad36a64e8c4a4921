"""Machine-speed sampling, so that timings can be put on one scale.

On a shared machine the speed of a core changes from second to second with
the load of other tenants: a fixed pure-Python loop takes anywhere from
1x to 1.8x its best time, in phases of seconds to minutes, and the process
CPU time stretches with it.  A benchmark's run-to-run spread then comes
from the machine rather than from the program.

A ``SpeedSampler`` times a small fixed probe every 0.2 s of process CPU
time, from a signal handler in the measured thread, while a block runs,
and whenever the caller marks a point, such as the start of an op.  The
probe is a pure-Python loop followed by an int64 add that streams 12 MiB,
because the workloads are bound by the interpreter or by memory.  The
mean probe time over an interval, divided by the probe's reference time,
is the interval's slowdown factor; a timing divided by it is in
"reference seconds", the time it would have taken at the reference
speed.  Each op gets its own factor, because the machine's speed can
change between one op and the next.  The probe shares no code with
pgfree, so a change to pgfree moves the timings but not the factors.
Probing inside ops costs about 1% of their time, alike on every commit.

The correction holds only as far as the program slows as the probe does.
Code that suffers more from a busy core is under-corrected: numpy gathers
over small tables slowed 1.75x while the probe slowed 1.3x, so part of the
machine's swing stays in the figures.  A change that alters how much the
program suffers from a busy core also shifts its corrected timings a
little, independently of its own speed.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.2
# The probe's time at the reference speed: roughly its best time on a
# 2-vCPU Intel Xeon VM (2 MiB L2 per core) with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.0013


class SpeedSampler:
    """Context manager that samples the probe while the block runs."""

    def __init__(self):
        import numpy as np  # here, so that set-up timings include its import

        self.samples: list[float] = []
        self._add = np.add
        self._src = np.arange(1 << 19, dtype=np.int64)  # 4 MiB, twice the L2
        self._dst = self._src.copy()

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i
        self._add(self._src, self._src, out=self._dst)
        self.samples.append(time.perf_counter() - t0)

    def mark(self) -> int:
        """Take a sample now and return its index."""
        self.sample()
        return len(self.samples) - 1

    def __enter__(self):
        self.sample()  # a block shorter than the interval still gets samples
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.sample()

    @property
    def factor(self) -> float:
        """Mean probe time over the reference time: 1.25 means 25% slower."""
        return statistics.mean(self.samples) / REFERENCE_S

    def factors(self, marks: list[int]) -> list[float]:
        """The slowdown factor of each interval from a mark to the next mark,
        or to the end of the block for the last: the mean of the samples
        from the interval's first mark through its last."""
        ends = marks[1:] + [len(self.samples) - 1]
        return [statistics.mean(self.samples[a:b + 1]) / REFERENCE_S
                for a, b in zip(marks, ends)]
