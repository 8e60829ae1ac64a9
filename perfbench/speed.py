"""Timing that survives a busy host.

The host's throughput moves with its neighbours.  On the 2-vCPU machine
this benchmark was written on, the same call took up to twice as long from
one minute to the next, and that would swamp any change worth measuring.
So every timed block also samples the machine's current speed.  Every
PERIOD_S of wall time, SIGALRM runs a fixed pure-Python reference loop
(integer and complex arithmetic, like the program's hot loops)
in the main thread, between two bytecodes of the timed code, and records
how long the loop took.  A block's reference time is its raw time, with the
sampling taken out, scaled by NOMINAL_S over the mean loop time sampled
during the block.  That is the time the block would take on a machine where
the loop runs in NOMINAL_S, about its time here when the host is quiet.
"""

import contextlib
import math
import signal
import statistics
import time
from dataclasses import dataclass

NOMINAL_S = 0.35e-3
PERIOD_S = 0.05


def reference_loop():
    # ints and complex only: nothing the garbage collector tracks, so a
    # sample never triggers a collection of the program's heap
    x, z = 1, complex(0.5, 0.25)
    for i in range(400):
        x = (x * 1103515245 + i) % 2305843009213693951
        z = z * z * 0.5 + 0.1j
        x += math.gcd(x, 1000003 + i)


@dataclass
class Timed:
    raw: float = 0.0      # wall seconds of the block, sampling excluded
    scale: float = 1.0    # NOMINAL_S / mean reference-loop time in the block
    sampled: float = 0.0  # wall seconds spent in the reference loop

    @property
    def seconds(self):
        return self.raw * self.scale


@contextlib.contextmanager
def timed():
    """Time the block; the yielded Timed is filled in when it exits."""
    samples = []

    def tick(signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - t0)

    out = Timed()
    previous = signal.signal(signal.SIGALRM, tick)
    start = time.perf_counter()
    # the first sample comes after 1 ms, so even short blocks get one
    signal.setitimer(signal.ITIMER_REAL, 1e-3, PERIOD_S)
    try:
        yield out
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
        out.sampled = sum(samples)
        out.raw = elapsed - out.sampled
        if samples:
            out.scale = NOMINAL_S / statistics.fmean(samples)
