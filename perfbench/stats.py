"""Summary statistics shared by the benchmark runner, workloads and tests."""

from __future__ import annotations

import math
import re
import statistics

#: metric names must match this so results files and the final JSON line
#: stay easy to grep and to cite
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.fullmatch(name))


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), interpolating linearly between ranks.

    This is ``numpy.percentile``'s default method.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank out of range: {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def iqr_ratio(values) -> float:
    """Distance between the first and third quartile, over the median.

    Quartiles come from ``statistics.quantiles(values, n=4)``, the same
    rule used to judge whether repeated runs of the benchmark agree.
    """
    data = [float(v) for v in values]
    if len(data) < 2:
        raise ValueError("need at least two values for quartiles")
    q1, _, q3 = statistics.quantiles(data, n=4)
    mid = statistics.median(data)
    if mid == 0.0:
        raise ValueError("median is zero; the spread is undefined")
    return (q3 - q1) / abs(mid)


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; attempted must be >= 1."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def count_failures(outcomes) -> tuple[int, int]:
    """(attempted, failed) from an iterable of per-operation ok flags."""
    flags = [bool(ok) for ok in outcomes]
    return len(flags), sum(1 for ok in flags if not ok)
