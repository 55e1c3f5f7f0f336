"""Statistics, environment stamp and resource readers shared by the benchmark."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from time import perf_counter

#: A workload is marked noisy when the calibration loop run before and after
#: it differs by more than this fraction.
NOISE_LIMIT = 0.15

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values: list[float], unit: str, better: str) -> dict:
    """One metric over the blocks of a run.

    ``value`` is the decile on the metric's good side (the first for
    ``lower``, the ninth for ``higher``), nearest rank.  This box's noise is
    one-sided — a neighbour only ever slows a block down, for seconds to
    minutes at a time — so a run's median reads how busy the host was while
    its good decile reads the program: over 40 simulated runs cut from one
    nine-minute series of 200-read blocks the median of ``read_p50_ms``
    spread 9 % and its first decile 7 %, the first quartile in between.
    The median and both quartiles are kept beside it.
    """
    q1, median, q3 = quartiles(values)
    ordered = sorted(values)
    return {
        "value": percentile(ordered, 0.1 if better == "lower" else 0.9),
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sorted list."""
    return ordered[min(len(ordered) - 1, max(0, int(fraction * len(ordered))))]


def calibrate(repeats: int = 7) -> float:
    """Fastest milliseconds of a fixed pure-Python loop: the box's speed now.

    The fastest of a few repeats, because the moments after a cluster is torn
    down are busy and the question is how fast the box can go, not whether
    it is disturbed this instant.
    """
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        total = 0
        for index in range(200_000):
            total += index * index % 7
        samples.append((perf_counter() - started) * 1e3)
    return min(samples)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def pin(pids: list[int], cpus: set[int]) -> None:
    """Restrict every thread of the processes ``pids`` to ``cpus``."""
    for pid in pids:
        for thread in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(thread), cpus)


def cpu_seconds(pids: list[int]) -> float:
    """User+system CPU of this process plus every live process in ``pids``."""
    total = time.process_time()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS  # utime, stime
    return total


def peak_rss_mb(pids: list[int]) -> float:
    """Peak resident set of this process plus the largest process in ``pids``."""
    largest = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        largest = max(largest, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + largest
