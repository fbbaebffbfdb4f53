"""Host-speed sampler: rescales host seconds to a reference CPU speed.

A shared host's vCPU does not run at one speed: on a 2-vCPU, 2.0 GHz
cloud VM it switches between two states about 1.6x apart, for stretches
of a fraction of a second up to tens of seconds, so raw host-second
throughput differs more between runs (15-30%) than any bound a
performance change could be judged by.  The benchmark therefore pins
itself to one CPU and starts this module as a second process on the
same CPU.  Every ``PERIOD_S`` it times :func:`kernel`, a fixed
pure-Python loop that never touches the program under test, and
records ``(start, duration)``.  A timed interval of the benchmark is
rescaled by ``REFERENCE_S / mean kernel duration`` over that interval:
its length in *reference seconds*, the seconds it would have taken on
a CPU that runs the kernel in ``REFERENCE_S``.  The sampler takes about
3% of the CPU it shares.

Run as a script it samples until its standard input closes, then writes
the samples to standard output as JSON.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

#: Seconds between kernel samples.
PERIOD_S = 0.02
#: Kernel duration that defines a reference second (the fast state of a
#: 2 GHz cloud vCPU).
REFERENCE_S = 0.0005
#: Fewest samples an interval is rescaled by; shorter intervals borrow
#: the nearest samples around them.
MIN_SAMPLES = 5


def kernel() -> None:
    """Fixed interpreter work: dictionary reads and writes in a loop."""
    table = {}
    for i in range(4000):
        table[i & 255] = table.get(i & 255, 0) + i


def _sample_until_stdin_closes() -> None:
    clock = time.perf_counter
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = clock()
        kernel()
        samples.append((start, clock() - start))
    json.dump(samples, sys.stdout)


class SpeedSampler:
    """Runs the sampler process for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._proc = None

    def __enter__(self) -> "SpeedSampler":
        # perf_counter is CLOCK_MONOTONIC on Linux, so sample times and
        # the benchmark's interval times share one clock.
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate(input="", timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise
        self.samples = json.loads(out)

    def factor(self, start: float, end: float) -> float:
        """Mean kernel duration over ``[start, end)`` in reference units."""
        durations = [d for t, d in self.samples if start <= t < end]
        if len(durations) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            durations = [d for _, d in nearest[:MIN_SAMPLES]]
        return statistics.fmean(durations) / REFERENCE_S

    def reference_seconds(self, start: float, end: float) -> float:
        """Length of ``[start, end)`` in reference seconds."""
        return (end - start) / self.factor(start, end)


if __name__ == "__main__":
    _sample_until_stdin_closes()
