"""Statistics helpers shared by run.py, compare.py and the tests.

Times are seconds unless a name says otherwise.  Apart from the
calibration kernel, which times itself, everything here is pure.
"""

from __future__ import annotations

import math
import statistics
import time

#: What :func:`calibration` reads on the reference host (2-CPU Xeon
#: at 2.1 GHz, Python 3.11) when nothing else runs on its cores.
REFERENCE_CALIBRATION_S = 0.0165


def calibration_kernel() -> float:
    """Seconds one fixed pure-Python workload takes.

    Dict LRU churn and integer list work — the operations the program's
    simulator spends its time on — but no code of the program, so no
    change to the program moves it.  Only the host's speed does.
    """
    start = time.perf_counter()
    lru: dict[int, int] = {}
    acc = []
    s = 0
    for i in range(20000):
        key = (i * 2654435761) & 4095
        if lru.pop(key, None) is None and len(lru) >= 512:
            del lru[next(iter(lru))]
        lru[key] = i
        s = (s * 31 + i) & 0xFFFFFFFF
        acc.append(s ^ key)
    acc.sort()
    return time.perf_counter() - start


def calibration(reps: int = 3) -> float:
    """The host's current speed: the fastest of ``reps`` kernel runs."""
    return min(calibration_kernel() for _ in range(reps))


def at_reference(seconds: float, calibration_s: float) -> float:
    """A time taken while :func:`calibration` read ``calibration_s``,
    rescaled to the reference host's speed.  Other tenants of a shared
    host slow the kernel and the program alike, so the rescaled time
    moves far less than either."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def calibrated(times: list[float], calibrations: list[float]
               ) -> list[float]:
    """Each time at the reference host's speed.

    ``calibrations`` holds one :func:`calibration` taken before each
    time and one after the last; a time is rescaled by the mean of the
    two around it.
    """
    if len(calibrations) != len(times) + 1:
        raise ValueError("need one calibration around each time")
    return [at_reference(t, (before + after) / 2.0)
            for t, before, after in zip(times, calibrations,
                                        calibrations[1:])]


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` %
    of the sample at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def block_p99(latencies: list[float], block: int = 1000) -> float:
    """Median over consecutive ``block``-sample blocks of each block's
    p99.

    A block of 1000 leaves ten samples beyond its p99, and the median
    over blocks ignores the few blocks a burst from another tenant
    slows.  With less than one full block the pooled p99 is returned.
    """
    full = len(latencies) // block
    if full == 0:
        return percentile(latencies, 99)
    return median([percentile(latencies[i * block:(i + 1) * block], 99)
                   for i in range(full)])
