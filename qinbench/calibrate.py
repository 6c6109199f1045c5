"""Host-speed calibration from a fixed reference computation.

The host this benchmark was built on runs a shared virtual CPU whose speed
drifts by +-20% over tens of seconds, and the drift moves a fixed reference
slice and qinlab alike: over 10 s windows of tree_pipeline jobs the ratio of
their times had a quartile spread of 3% while the job time alone had 14%.
An in-cache arithmetic slice alone tracked worse (4% there, and in fast
spells it sped up 65% where the jobs sped up 18%): work with a larger
working set gains less than the clock. The slice is therefore half in-cache
arithmetic, half allocation and a large memmove.

Runs interleave slices with the jobs and scale each job's time by
``REF_SLICE_S`` over the median slice time measured within ``WINDOW_S`` of
job time around it: the reported times are what the run would have taken on
a host where one slice takes ``REF_SLICE_S``. The raw wall-clock values are
printed beside them. Slices run with the cyclic collector off, so the size
and collector state of the program's heap do not enter their time; set-up is
scaled by slices run in the fresh interpreter before the program is
imported.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REF_SLICE_S = 0.0058   # nominal slice time; about the median on a 2.1 GHz Xeon
REF_SHARE = 0.1        # reference time kept at this share of job time
WINDOW_S = 1.0         # job time on either side whose slices set a factor


def reference_slice(n: int = 4000) -> int:
    """Fixed work: dict, tuple, int and float arithmetic in cache, then
    allocation and a large ``list.pop(0)`` memmove."""
    table = {}
    total = 0.0
    for i in range(n):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
        total += (i % 13) ** 0.5
    big = list(range(40000))
    for _ in range(200):
        big.pop(0)
    pairs = {i: (i, i + 1) for i in range(3000)}
    kids = {i: tuple(range(i, i + 3)) for i in range(0, 3000, 3)}
    return int(total) + len(table) + len(big) + len(pairs) + len(kids)


class Calibrator:
    def __init__(self):
        self.seconds = 0.0
        self.at: list[float] = []       # job time when each slice ran
        self.times: list[float] = []    # each slice's own time

    def run(self, slices: int = 1, busy: float = 0.0) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(slices):
                start = time.perf_counter()
                reference_slice()
                took = time.perf_counter() - start
                self.seconds += took
                self.at.append(busy)
                self.times.append(took)
        finally:
            if enabled:
                gc.enable()

    def behind(self, busy: float) -> bool:
        """Whether slices add up to less than REF_SHARE of ``busy``."""
        return self.seconds < REF_SHARE * busy

    def keep_up(self, busy: float) -> None:
        """Run slices until they add up to REF_SHARE of ``busy``."""
        while self.behind(busy):
            self.run(busy=busy)

    def factor(self, lo: float = float("-inf"),
               hi: float = float("inf")) -> float:
        """Nominal over median measured slice time for slices run between
        job times ``lo`` and ``hi`` (all slices when too few fall inside).
        The median ignores slices slowed by a cache the job left cold."""
        first = bisect.bisect_left(self.at, lo)
        last = bisect.bisect_right(self.at, hi)
        if last - first < 5:
            first, last = 0, len(self.at)
        return REF_SLICE_S / statistics.median(self.times[first:last])

    def scale(self, latencies: list[float]) -> list[float]:
        """Each job time times the factor of the slices around it."""
        out, busy = [], 0.0
        for t in latencies:
            mid = busy + t / 2
            out.append(t * self.factor(mid - WINDOW_S, mid + WINDOW_S))
            busy += t
        return out
