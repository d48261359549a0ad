"""Machine-speed calibration.

The benchmark runs on shared hosts whose speed moves by 30% or more from
one stretch of seconds to the next.  A worker times the fixed loop below
before its first operation, after any operation that ends 0.2 s or more
after the previous sample, and at the end of its pass.  run.py scales
the time of each operation by REFERENCE_S over the mean of the samples
that bracket it, so times read as seconds at the speed where the loop
takes REFERENCE_S.  The raw times stay in the run's record.
"""

import math
import statistics
import time

REFERENCE_S = 0.003
SAMPLE_EVERY_S = 0.2


def calibrate():
    """Seconds for a fixed pure-Python loop over math.lgamma, median of five."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(15_000):
            total += math.lgamma(i + 1.5)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
