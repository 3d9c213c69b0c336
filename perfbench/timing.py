"""Clock helpers: the machine-speed reference and the percentile rule.

The benchmark runs on shared machines whose speed drifts by a third or more
over minutes, for CPU time as much as for wall time.  A fixed block of
reference work, independent of fglab, is timed between the steps of a run
(set-ups and configs); each step's wall time is scaled by REFERENCE_S over
the reference time measured around it.  Timings reported in seconds are therefore seconds
at the speed at which the reference block takes REFERENCE_S, and a
change to fglab moves them exactly as it moves the raw wall time.
"""

import math
import statistics
import time
from fractions import Fraction

import numpy as np

# A typical time of one reference block on a 2-core Intel Xeon VM with
# Python 3.11 and numpy 2.4; it only fixes the scale of reported seconds.
REFERENCE_S = 0.05


def _reference_block():
    """Work shaped like fglab's: exact rationals, Python integers mod a
    prime, and small int64 convolutions."""
    acc = Fraction(0)
    for k in range(1, 1800):
        acc += Fraction(k, 3 * k * k + 1)
    x = 1
    for i in range(90000):
        x = (x * 40503 + i) % 1000003
    a = np.arange(48, dtype=np.int64)
    for _ in range(2400):
        a = np.convolve(a, a)[:48] % 1009
    return acc, x, int(a[-1])


def reference_time():
    """Median wall time of five reference blocks, in seconds.  Two single
    blocks run back to back differ by about 9%, so one is not enough."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_block()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile_summary(samples):
    """Median and the highest whole percentile that has at least ten
    samples beyond it (nearest-rank), with the sample count.  With fewer
    than twenty samples no percentile qualifies and only the median is
    given."""
    xs = sorted(samples)
    n = len(xs)
    if not n:
        raise ValueError("no samples")
    out = {"n": n, "median": statistics.median(xs)}
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            out[f"p{p}"] = xs[rank - 1]
            break
    return out
