"""Host seconds scaled to a fixed host speed.

The machine the baseline was taken on is a shared VM whose speed drifts:
the same work ran up to 1.5x slower for seconds to minutes at a time, with
user CPU time moving with wall time. So the benchmark cuts each pass into
segments of at most a few seconds, at csfsim calls, and times a fixed
reference kernel at every cut. A segment's host seconds are divided by the
mean reference time at its two ends and multiplied by REF_SECONDS, the
reference time on the baseline machine. A change to csfsim moves the
scaled seconds as it moves host seconds; a slow phase of the host moves
both the segment and the reference, and cancels.

The reference kernel uses numpy and plain Python, like csfsim, and no
csfsim code, so no change to the program can move it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import numpy as np

REF_SECONDS = 0.003  # median reference time on the baseline machine


class Reference:
    """A fixed numpy and interpreter workload of a few milliseconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._out = np.empty((64, 56, 56), np.float32)
        self._tmp = np.empty_like(self._out)
        self._weights = rng.random((64, 1, 1), dtype=np.float32)
        self._plane = rng.random((1, 56, 56), dtype=np.float32)

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(10):
            np.multiply(self._weights, self._plane, out=self._tmp)
            np.add(self._tmp, self._plane, out=self._out)
        pairs = [(i, i * 0.5) for i in range(10000)]
        total = 0
        for index, _ in pairs:
            total += index
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Fastest of three runs, which drops a one-off interruption."""
        return min(self._once() for _ in range(3))


class ScaledClock:
    """Times one pass as segments cut at csfsim calls.

    `raw` sums the segments' host seconds and `scaled` their seconds at the
    reference speed. Reference timing and paused work count in neither;
    with a tracer they are recorded as `perfbench` spans, so that they
    drop out of csfsim's self times.
    """

    def __init__(self, reference: Reference, tracer=None):
        self.reference = reference
        self.tracer = tracer
        self.raw = 0.0
        self.scaled = 0.0
        self.samples = []
        self._open = None  # (start, reference seconds) of the segment

    def _sample(self) -> float:
        with self.tracer.span("perfbench") if self.tracer else nullcontext():
            ref = self.reference.seconds()
        self.samples.append(ref)
        return ref

    def _close(self):
        end = time.perf_counter()
        start, ref_start = self._open
        ref = self._sample()
        self.raw += end - start
        self.scaled += (end - start) * REF_SECONDS / ((ref_start + ref) / 2)
        return ref

    def start(self):
        ref = self._sample()
        self._open = (time.perf_counter(), ref)

    def cut(self):
        """Ends the running segment and starts the next."""
        ref = self._close()
        self._open = (time.perf_counter(), ref)

    def stop(self):
        self._close()
        self._open = None

    @contextmanager
    def paused(self):
        """Work inside is not timed, such as the benchmark's own checks."""
        ref = self._close()
        with self.tracer.span("perfbench") if self.tracer else nullcontext():
            yield
        self._open = (time.perf_counter(), ref)
