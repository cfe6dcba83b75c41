"""Correction for the machine's speed at the moment a time was taken.

On a shared box every process slows by up to ~1.8x for seconds at a time:
one 1.5 s job ranged over 1.15 to 1.93 s in fourteen back-to-back runs, and
the noise is not steal time and not tied to one CPU.  While a job runs,
SIGALRM fires every ``PERIOD_S`` and times a short fixed loop of integer
arithmetic.  The job's time, less the samples' own time, is then reported at
the loop's nominal speed:

    corrected = (t - sum(samples)) * REF_S / mean(samples)

This cut the spread (interquartile range over median) of those fourteen runs
from 0.27 to 0.07.  The loop touches nothing of orbicount, so no change to
the program can move it.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter
from typing import List

PERIOD_S = 0.01
REF_S = 0.0005  # the loop's time on an idle 2-CPU sandbox (Python 3.11)


def speed_loop() -> None:
    acc = 0
    for x in range(1, 1500):
        acc += (x**3 * 5) // (math.gcd(x, 103001) + 1)


class SpeedSampler:
    """Context manager: samples the loop's time while its block runs.  A block
    too short for the timer gets one sample at its end."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        speed_loop()
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._tick()

    def correct(self, seconds: float) -> float:
        """``seconds`` measured over the block, at nominal machine speed."""
        own = math.fsum(self.samples)
        return max(seconds - own, 0.0) * REF_S / statistics.mean(self.samples)
