"""Measurement containers and summary statistics."""

from __future__ import annotations

import math
from typing import Dict, List

__all__ = ["LatencySample", "summarize", "pinned"]


def summarize(values: List[float]) -> Dict[str, float]:
    """Mean / median / p95 / min / max of a sample (seconds in, seconds out)."""
    if not values:
        return {"count": 0, "mean": 0.0, "median": 0.0, "p95": 0.0, "min": 0.0, "max": 0.0}
    ordered = sorted(values)
    count = len(ordered)

    def percentile(p: float) -> float:
        if count == 1:
            return ordered[0]
        rank = p * (count - 1)
        low = int(math.floor(rank))
        high = min(low + 1, count - 1)
        frac = rank - low
        value = ordered[low] * (1 - frac) + ordered[high] * frac
        # interpolation can drift an ulp outside the sample range
        return min(max(value, ordered[low]), ordered[high])

    # fsum is exactly rounded, hence equal under every interpreter (sum()
    # is compensated from CPython 3.12 on); the division can still land
    # the mean an ulp outside the sample range
    mean = min(max(math.fsum(ordered) / count, ordered[0]), ordered[-1])
    return {
        "count": count,
        "mean": mean,
        "median": percentile(0.5),
        "p95": percentile(0.95),
        "min": ordered[0],
        "max": ordered[-1],
    }


def pinned(point) -> Dict[str, float]:
    """A measured point's virtual-time values as ``benchmarks/gates.json``
    holds them, rounded as every section rounds."""
    return {
        "latency_ms": round(point.latency_ms, 3),
        "throughput": round(point.throughput, 2),
    }


class LatencySample:
    """Accumulates per-request latencies (seconds)."""

    def __init__(self):
        self.values: List[float] = []

    def add(self, seconds: float) -> None:
        self.values.append(seconds)

    def extend(self, other: "LatencySample") -> None:
        self.values.extend(other.values)

    @property
    def mean_ms(self) -> float:
        return summarize(self.values)["mean"] * 1e3
