"""Host speed probe: rescale measured times to a fixed reference speed.

On a shared virtual machine the same code runs up to about 1.5 times
slower while the host's other tenants are busy, in stretches from
milliseconds to minutes, so two runs of the same program minutes apart can
differ by a third.  ``SpeedProbe`` times a fixed chunk of pure-Python work
(integer and ``Fraction`` arithmetic, about 0.3 ms) every
``TICK_S`` seconds from a ``SIGALRM`` handler, interleaved with the program
in the same process.  ``at_ref(a, b)`` takes the interval's measured time, removes the
probe's own chunks from it and rescales it by ``REF_CHUNK_S`` over the
median chunk time inside the interval: the time the interval would have
taken with the host at the reference speed.  A program that does more work
takes longer at any speed, so a slowdown of the program still shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

TICK_S = 0.02
# the chunk's time at the reference speed: about its time while the host
# was quiet, on the 2-vCPU x86-64 virtual machine of the first measurements
REF_CHUNK_S = 0.0002


def chunk() -> float:
    """Run the fixed chunk of work once; return its wall time.

    The chunk mixes two kinds of arithmetic the program does: machine-size
    integers, and Fractions whose denominators grow.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(1000):
        s += i * i % 7
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(1, k)
    return time.perf_counter() - t0


def chunk_now(times: int = 9) -> float:
    """Median time of the chunk, run ``times`` times in a row now."""
    return statistics.median(chunk() for _ in range(times))


class SpeedProbe:
    """Samples the chunk's time every ``TICK_S`` seconds while started."""

    def __init__(self):
        self.stamps: list[float] = []
        self.chunks: list[float] = []

    def _tick(self, signum, frame):
        self.stamps.append(time.perf_counter())
        self.chunks.append(chunk())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.chunks:  # stopped within one tick
            self.stamps.append(time.perf_counter())
            self.chunks.append(chunk_now())

    def at_ref(self, a: float, b: float) -> float:
        """Interval [a, b] of perf_counter, rescaled to the reference speed."""
        i = bisect.bisect_left(self.stamps, a)
        j = bisect.bisect_left(self.stamps, b)
        inside = self.chunks[i:j]
        if inside:
            return (b - a - sum(inside)) * REF_CHUNK_S / statistics.median(inside)
        # no tick inside a short interval: the nearest one
        k = min((k for k in (i - 1, i) if 0 <= k < len(self.stamps)),
                key=lambda k: abs(self.stamps[k] - a))
        return (b - a) * REF_CHUNK_S / self.chunks[k]

    def factor(self) -> float:
        """Median chunk time over the reference: how much slower the host ran."""
        return statistics.median(self.chunks) / REF_CHUNK_S
