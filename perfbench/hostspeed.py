"""Host-speed calibration interleaved with the measured work.

The host this benchmark was built on runs the same code at two speeds:
neighbours on the physical machine slow it by about 1.6x for stretches
of seconds to minutes, and process CPU time slows with it, so neither
longer runs nor CPU time remove the effect.  A fixed calibration chunk
(a small loop of Python arithmetic, dict updates and 16-element NumPy
draws, the mix the workloads execute) is therefore run every
``INTERVAL_S`` of measured work, between ops, and each timed pass is
divided by the pass's mean chunk time over ``REFERENCE_MS``: times are
reported in seconds of a host running the chunk in ``REFERENCE_MS``.
The chunk is independent of the program, so a change to the program
moves the normalised times exactly as it moves the raw ones; the raw
times are printed next to them.
"""

import bisect
import statistics
import time

import numpy as np

#: Chunk time (ms) of the reference host: the fast mode of a 2-vCPU
#: x86-64 VM with Python 3.11 and NumPy, where the chunk reads
#: 0.52 ms uncontended and about 0.88 ms when slowed.
REFERENCE_MS = 0.52

#: Measured work between two chunks, in seconds.
INTERVAL_S = 0.04

#: Chunks this close (seconds) to an op set the op's factor.
LOCAL_WINDOW_S = 0.5

_SIZE = 16
_STEPS = 150


class HostSpeed:
    """Chunk timings since the last :meth:`reset`."""

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._weights = np.arange(_SIZE, dtype=float)
        self.chunk_ms = []
        #: Start time (``perf_counter``) of each chunk.
        self.chunk_at = []
        self._last = time.perf_counter()
        self.chunk()  # first-call warm-up, not kept
        self.reset()

    def chunk(self):
        """Run one calibration chunk; returns its seconds."""
        started = time.perf_counter()
        totals = {}
        for step in range(_STEPS):
            draws = self._rng.lognormal(0.0, 0.1, _SIZE)
            value = float((draws * self._weights).sum())
            totals[step % 17] = totals.get(step % 17, 0.0) + value
        elapsed = time.perf_counter() - started
        self.chunk_ms.append(elapsed * 1000.0)
        self.chunk_at.append(started)
        self._last = time.perf_counter()
        return elapsed

    def due(self):
        """Whether ``INTERVAL_S`` of work has passed since the last
        chunk."""
        return time.perf_counter() - self._last >= INTERVAL_S

    def reset(self):
        """Forget the chunks so far."""
        self.chunk_ms = []
        self.chunk_at = []
        self._last = time.perf_counter()

    def factor(self):
        """Mean chunk time over the reference: above 1 on a slow host."""
        if not self.chunk_ms:
            self.chunk()
        return statistics.mean(self.chunk_ms) / REFERENCE_MS

    def local_factors(self, times):
        """Host-speed factor at each of *times* (sorted ``perf_counter``
        readings): the mean chunk within ``LOCAL_WINDOW_S`` of it, or
        the whole :meth:`factor` where no chunk is that close."""
        whole = self.factor()
        factors = []
        for at in times:
            low = bisect.bisect_left(self.chunk_at, at - LOCAL_WINDOW_S)
            high = bisect.bisect_right(self.chunk_at, at + LOCAL_WINDOW_S)
            near = self.chunk_ms[low:high]
            factors.append(
                statistics.mean(near) / REFERENCE_MS if near else whole)
        return factors
