"""Summary statistics for benchmark samples.

Timings are reported the way the metrics guide asks: a median plus the
highest percentile that still has at least ten samples beyond it, with
the sample count stated.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: candidate tail percentiles, lowest first
TAIL_PERCENTILES = (0.90, 0.99)

#: a percentile needs this many samples above it to be reported
SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the value at rank ``ceil(q * n)``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def percentile_allowed(n: int, q: float) -> bool:
    """True when *n* samples leave at least ten beyond percentile *q*."""
    return n * (1.0 - q) >= SAMPLES_BEYOND - 1e-9


def percentile_label(q: float) -> str:
    """``0.9 -> "p90"``, ``0.99 -> "p99"``."""
    return "p" + format(q * 100, "g")


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the benchmark contract bounds."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """``{"n", "p50", "p90"...}``: the median plus every tail percentile
    the sample count supports."""
    out: Dict[str, float] = {"n": float(len(values)),
                             "p50": median(values)}
    for q in TAIL_PERCENTILES:
        if percentile_allowed(len(values), q):
            out[percentile_label(q)] = percentile(values, q)
    return out
