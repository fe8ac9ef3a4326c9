"""Times of the program's calls, scaled to a fixed host speed.

The shared host this benchmark runs on changes speed by 10 % to 40 % over
seconds to minutes: identical work timed in consecutive 25-second windows
varied with a standard deviation of 7 % to 15 % of its mean.  A sample of
fixed interpreter work (``reference_block``), taken between the program's
calls at least every ``SAMPLE_EVERY_S`` seconds, follows that speed.  Every
call's wall-clock time is multiplied by ``REFERENCE_S`` over the median of
the samples around it (see ``HostClock.totals``): the time the call would
have taken on a host where a sample takes ``REFERENCE_S``.

On windows of 12 to 40 seconds, scaled Monte Carlo rates varied with a
standard deviation of 1 % to 4 %, against 12 % to 17 % unscaled.  The block
runs only the benchmark's own code, so a change to the program moves its
scaled times exactly as much as its wall-clock times, as long as the host
keeps its speed.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# median time of a sample on the 2-vCPU Xeon virtual machine the benchmark
# was tuned on; it only sets the scale of the reported times
REFERENCE_S = 0.0064
SAMPLE_EVERY_S = 0.25
WINDOW_S = 1.0
BLOCKS_PER_SAMPLE = 3


def reference_block() -> float:
    """Seconds taken by fixed interpreter work: dict stores and loads,
    integer arithmetic and a sort, the mix the program's own calls run.

    The garbage collector is paused, so that a collection of the program's
    heap never lands in the block.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for _ in range(7):
            table = {}
            for i in range(1000):
                table[i] = i * 7 % 13
                acc += table[i] ^ i
            sorted(table.values())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Collects call times under keys and scales them by the host's speed.

    ``tick`` between calls takes a sample once ``SAMPLE_EVERY_S`` has
    passed since the last; ``add`` records a call.  ``totals`` scales each
    call (calls of one key between two samples together) by the median of the samples taken from ``WINDOW_S`` before it
    began to ``WINDOW_S`` after it ended, and always by the last sample
    before it and the first one after it.  A median of several samples
    keeps one stall of the host at a sample from rescaling a whole call.
    """

    def __init__(self):
        reference_block()  # warm-up
        self.taken_at: list[float] = []   # when each sample began
        self.samples: list[float] = []    # seconds each sample took
        # key, start of the first call, end of the last, seconds in the calls
        self.calls: list[list] = []
        self.sample()

    def sample(self) -> None:
        self.taken_at.append(time.perf_counter())
        # the median of three blocks, so that one interrupted block does not
        # count, times three: a sample stands for the three blocks' work
        self.samples.append(BLOCKS_PER_SAMPLE * statistics.median(
            reference_block() for _ in range(BLOCKS_PER_SAMPLE)))
        self._sampled_at = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._sampled_at >= SAMPLE_EVERY_S:
            self.sample()

    def add(self, key, start: float, seconds: float) -> None:
        last = self.calls[-1] if self.calls else None
        if last and last[0] == key and last[2] > self.taken_at[-1]:
            # same key and no sample since: one entry, so that the list
            # grows with the samples and keys, not with every call
            last[2] = start + seconds
            last[3] += seconds
        else:
            self.calls.append([key, start, start + seconds, seconds])

    def totals(self, scaled: bool) -> dict:
        """Seconds per key, scaled to the reference speed or wall-clock.

        Take a sample after the last call first.
        """
        out: dict = {}
        for key, start, end, seconds in self.calls:
            if scaled:
                before = bisect.bisect_right(self.taken_at, start) - 1
                after = bisect.bisect_left(self.taken_at, end)
                lo = min(before, bisect.bisect_left(self.taken_at, start - WINDOW_S))
                hi = max(after, bisect.bisect_right(self.taken_at, end + WINDOW_S) - 1)
                seconds *= REFERENCE_S / statistics.median(self.samples[lo:hi + 1])
            out[key] = out.get(key, 0.0) + seconds
        return out
