"""Metrics primitives: counters, gauges, and HDR-style histograms.

Everything here is deterministic and simulation-aware: values are recorded
against **virtual** time and quantities, never wall-clock, so two runs with
the same seed produce byte-identical snapshots.  The registry is the common
schema the benchmarks report against; layer code holds direct references to
its instruments (attribute increments, no name lookups on hot paths).  An
instrument mirroring state a layer keeps anyway is *pulled* instead: read
from that state by a snapshot, ``counter_value`` or ``diff``, never pushed.

Histograms use HDR-style logarithmic bucketing: each power-of-two octave is
split into ``SUBBUCKETS`` linear sub-buckets, giving a bounded relative
error (~1/SUBBUCKETS) over an arbitrary dynamic range while storing only a
sparse dict of bucket counts.  Percentiles are estimated from bucket upper
bounds, which keeps them deterministic and monotone.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OnFirstUse",
    "merge_snapshots",
    "diff_snapshots",
]

#: Linear sub-buckets per power-of-two octave (relative error ~6%).
SUBBUCKETS = 16

#: Sentinel bucket for zero/negative observations.  Values below 0.5 occupy
#: genuine negative indices (frexp exponents go down to about -1073, i.e.
#: index >= -17200), so the sentinel must sit far below that range.
ZERO_BUCKET = -(10**9)

#: Observations a histogram buffers before folding them into its buckets.
CHUNK = 256


class OnFirstUse(dict):
    """A dict that builds a missing entry as ``build(key)`` the first time
    it is indexed, so a hot path reads it with a plain subscript: no
    ``.get``, no miss branch.  ``.get`` and ``in`` never build."""

    __slots__ = ("_build",)

    def __init__(self, build: Callable):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Pulled:
    """A counter or gauge read from the state it mirrors when asked: its
    ``value`` is the sum of its sources' reads, in registration order."""

    __slots__ = ("sources", "_cast")

    def __init__(self, cast: Callable):
        self.sources: List[Callable] = []
        self._cast = cast

    @property
    def value(self):
        total = 0
        for read in self.sources:
            total += read()
        return self._cast(total)


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


_frexp = math.frexp


def _bucket_upper(index: int) -> float:
    """Upper bound of the bucket with the given index."""
    if index == ZERO_BUCKET:
        return 0.0
    exponent, sub = divmod(index, SUBBUCKETS)
    return (0.5 + (sub + 1) / (2 * SUBBUCKETS)) * (2.0 ** exponent)


def _folded(slot: str) -> property:
    """A histogram attribute over ``slot``: reading or assigning it folds
    the buffered observations in first."""

    def read(self):
        self._fold()
        return getattr(self, slot)

    def write(self, value) -> None:
        self._fold()
        setattr(self, slot, value)

    return property(read, write)


class Histogram:
    """Sparse HDR-style histogram over an arbitrary positive range.

    :meth:`record` only stores the value in a fixed chunk.  The chunk is
    folded into ``count``, ``total``, ``min``, ``max`` and ``buckets`` when
    it fills and before any of them is read or assigned, in record order,
    so every summary is what recording one value at a time would give.

    The chunk/fill protocol: ``_chunk[:_filled]`` holds the values recorded
    since the last fold, in record order.  A writer stores the value at
    ``_chunk[_filled]``, adds one to ``_filled`` and calls :meth:`_fold`
    when that filled the chunk.  :meth:`record` is one writer;
    :meth:`repro.sim.core.Cpu.submit` is the other, in line, so a CPU job
    records its queueing delay without a call.
    """

    __slots__ = ("name", "_chunk", "_filled", "_count", "_total", "_min", "_max", "_buckets")

    def __init__(self, name: str):
        self.name = name
        self._chunk: List[float] = [0.0] * CHUNK
        self._filled = 0
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._buckets: Dict[int, int] = {}

    count = _folded("_count")
    total = _folded("_total")
    min = _folded("_min")
    max = _folded("_max")
    buckets = _folded("_buckets")

    def record(self, value: float) -> None:
        filled = self._filled
        self._chunk[filled] = value
        self._filled = filled + 1
        if filled == CHUNK - 1:
            self._fold()

    def _fold(self) -> None:
        filled = self._filled
        if not filled:
            return
        self._filled = 0
        values = self._chunk[:filled]
        self._count += filled
        # an explicit += in record order: sum() would round differently
        total, mn, mx = self._total, self._min, self._max
        buckets = self._buckets
        for value, (mantissa, exponent) in zip(values, map(_frexp, values)):
            total += value
            if mn is None or value < mn:
                mn = value
            if mx is None or value > mx:
                mx = value
            # HDR bucket index: octave (binary exponent) * SUBBUCKETS +
            # linear position of the mantissa (value = mantissa *
            # 2**exponent, 0.5 <= mantissa < 1) within the octave; zero and
            # negative values map to ZERO_BUCKET (counted, reported as 0.0)
            if value <= 0.0:
                index = ZERO_BUCKET
            else:
                sub = int((mantissa - 0.5) * (2 * SUBBUCKETS))
                if sub >= SUBBUCKETS:  # mantissa == 1.0 edge after float fuzz
                    sub = SUBBUCKETS - 1
                index = exponent * SUBBUCKETS + sub
            buckets[index] = buckets[index] + 1 if index in buckets else 1
        self._total, self._min, self._max = total, mn, mx

    @property
    def mean(self) -> float:
        self._fold()
        return self._total / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated p-quantile (0..1) from bucket upper bounds."""
        self._fold()
        if not self._count:
            return 0.0
        rank = max(1, math.ceil(p * self._count))
        seen = 0
        buckets = self._buckets
        for index in sorted(buckets):
            seen += buckets[index]
            if seen >= rank:
                upper = _bucket_upper(index)
                # clamp the estimate into the observed range
                return min(max(upper, self._min), self._max)
        return self._max  # pragma: no cover - unreachable

    def summary(self) -> Dict[str, float]:
        self._fold()
        return {
            "count": self._count,
            "mean": self.mean,
            "min": self._min or 0.0,
            "max": self._max or 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """All instruments of one simulation run, keyed by dotted name."""

    def __init__(self):
        self._counters: Dict[str, Counter] = OnFirstUse(Counter)
        self._gauges: Dict[str, Gauge] = OnFirstUse(Gauge)
        self._histograms: Dict[str, Histogram] = OnFirstUse(Histogram)

    # ------------------------------------------------------------------
    # instrument access (create on first use, then cached by the caller)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        return self._histograms[name]

    def counters(self, prefix: str) -> Dict[str, Counter]:
        """The counters ``<prefix><kind>`` by kind, each registered the
        first time its kind is indexed (per-kind traffic accounting)."""
        return OnFirstUse(lambda kind: self._counters[prefix + kind])

    def pull_counter(self, name: str, read: Callable[[], int]) -> None:
        """Add ``read`` to the sources of the pulled counter ``name``."""
        self._counters.setdefault(name, Pulled(int)).sources.append(read)

    def pull_gauge(self, name: str, read: Callable[[], float]) -> None:
        """Add ``read`` to the sources of the pulled gauge ``name``."""
        self._gauges.setdefault(name, Pulled(float)).sources.append(read)

    # ------------------------------------------------------------------
    # read-side accessors (SLO evaluation, report building)
    # ------------------------------------------------------------------
    def counter_value(self, name: str, default: int = 0) -> int:
        """Current value of a counter; ``default`` if it was never created.

        Read-only: unlike :meth:`counter`, a miss does not register an
        instrument, so probing names cannot perturb snapshots.
        """
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else default

    def histogram_summary(self, name: str) -> Optional[Dict[str, float]]:
        """Summary dict of a histogram, or ``None`` if it was never created."""
        instrument = self._histograms.get(name)
        return instrument.summary() if instrument is not None else None

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """A deterministic, JSON-serialisable view of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def diff(self, since: Dict[str, Dict]) -> Dict[str, Dict]:
        """Window delta between a prior :meth:`snapshot` and now.

        Equivalent to ``diff_snapshots(since, self.snapshot())`` — the SLO
        and CLI entry point for per-window rates instead of cumulative
        totals.
        """
        return diff_snapshots(since, self.snapshot())


def merge_snapshots(snapshots: Iterable[Dict[str, Dict]]) -> Dict[str, Dict]:
    """Sum counters and combine histogram summaries across runs.

    Gauges are last-write-wins; histogram summaries are merged approximately
    (count/total-weighted mean, min/max exact, percentiles dropped since they
    cannot be merged from summaries alone).
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = value
        for name, summary in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = dict(summary)
                continue
            if summary["count"]:
                if merged["count"]:
                    total_count = merged["count"] + summary["count"]
                    merged["mean"] = (
                        merged["mean"] * merged["count"]
                        + summary["mean"] * summary["count"]
                    ) / total_count
                    merged["count"] = total_count
                    merged["min"] = min(merged["min"], summary["min"])
                    merged["max"] = max(merged["max"], summary["max"])
                else:
                    # an empty summary's mean/min/max are 0.0 placeholders,
                    # not observations: the first non-empty one replaces them
                    merged.update(summary)
            for quantile in ("p50", "p95", "p99"):
                merged.pop(quantile, None)
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def diff_snapshots(
    before: Dict[str, Dict], after: Dict[str, Dict]
) -> Dict[str, Dict]:
    """Window delta between two snapshots of the *same* registry.

    Counters subtract (new names count from zero; a negative delta means
    the instrument was reset between snapshots and is reported as-is).
    Gauges report the signed change in value.  Histogram summaries report
    the window's observation count and an approximate window mean derived
    from the count-weighted totals; min/max/percentiles are dropped since
    they cannot be recovered from cumulative summaries.
    """
    counters = {
        name: value - before.get("counters", {}).get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    gauges = {
        name: value - before.get("gauges", {}).get(name, 0.0)
        for name, value in after.get("gauges", {}).items()
    }
    histograms: Dict[str, Dict[str, float]] = {}
    for name, summary in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name, {"count": 0, "mean": 0.0})
        count = summary["count"] - prior["count"]
        total = summary["mean"] * summary["count"] - prior["mean"] * prior["count"]
        histograms[name] = {
            "count": count,
            "mean": total / count if count > 0 else 0.0,
        }
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }
