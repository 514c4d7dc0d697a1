"""Host speed readings, and timings scaled to a reference host speed.

A vCPU of a shared host changes speed by up to 1.5x for tens of seconds at
a time (another tenant's load on the same core), and a whole benchmark run
can fall into a slow stretch.  The time of a fixed reference kernel, taken
between samples, tracks that speed: a sample is scaled by
``REFERENCE_S / reading``, with the mean of the readings just before and
just after it.  A scaled time still moves one for one with the program's
own cost, since the reference kernel runs no code of the program.

The kernel mixes interpreter-bound work (dict updates in a Python loop)
with numpy array work (a stable sort, gathers, a weighted bincount), in
about the proportions of the compile and solve paths: the interpreter
slows more than array code in a slow stretch.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: The reference kernel's time at the host's fast speed (the 2-core host
#: the benchmark was sized on); scaled timings read as seconds there.
REFERENCE_S = 0.009

#: A reading is the fastest of this many runs of the kernel, so one
#: interrupt does not decide it.
RUNS_PER_READING = 2

#: Samples are scaled at the first sample boundary this long after the
#: last reading (and at every :meth:`Speedometer.flush`).
READ_PERIOD_S = 0.5

_ARRAY_SIZE = 40_000
_LOOP = 45_000

clock = time.perf_counter


class _Kernel:
    def __init__(self):
        rng = np.random.default_rng(20240427)
        self.keys = rng.integers(0, 1 << 20, _ARRAY_SIZE)
        self.values = rng.normal(size=_ARRAY_SIZE)
        self.gather = rng.integers(0, _ARRAY_SIZE, _ARRAY_SIZE)

    def __call__(self) -> float:
        order = np.argsort(self.keys, kind="stable")
        moved = self.values[order] * self.values[self.gather]
        sums = np.cumsum(np.bincount(self.keys & 4095, weights=moved))
        table: dict[int, int] = {}
        for i in range(_LOOP):
            key = i & 511
            table[key] = table.get(key, 0) + i
        return float(sums[-1]) + table[0]


class Speedometer:
    """Reference readings between samples, and the samples scaled by them.

    :meth:`add` queues a raw sample; it is scaled into its list at the next
    reading, by the mean of that reading and the one before the sample.
    """

    def __init__(self):
        self.readings: list[float] = []
        self._kernel = _Kernel()
        self._pending: list[tuple[list, float]] = []
        self._read_at = -math.inf
        self.read()

    def _reading(self) -> float:
        best = math.inf
        for _ in range(RUNS_PER_READING):
            started = clock()
            self._kernel()
            best = min(best, clock() - started)
        return best

    def read(self) -> float:
        """Take a reading; scale the samples queued since the last one."""
        best = self._reading()
        if self.readings:
            scale = 2 * REFERENCE_S / (self.readings[-1] + best)
            for target, raw in self._pending:
                target.append(raw * scale)
        self._pending.clear()
        self.readings.append(best)
        self._read_at = clock()
        return best

    def add(self, target: list, raw: float) -> None:
        """Queue ``raw`` for ``target``; read if the last reading is old."""
        self._pending.append((target, raw))
        if clock() - self._read_at >= READ_PERIOD_S:
            self.read()

    def flush(self) -> None:
        """Read now if samples are queued, so every list is complete."""
        if self._pending:
            self.read()

    @property
    def factor(self) -> float:
        """Median reading over ``REFERENCE_S``: how slow the host ran."""
        ordered = sorted(self.readings)
        return ordered[len(ordered) // 2] / REFERENCE_S
