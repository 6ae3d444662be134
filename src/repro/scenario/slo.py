"""SLO assertions evaluated against scenario results and obs metrics.

Each SLO turns the run's deterministic measurements — the traffic
generator's latency samples, the :mod:`repro.obs` metrics registry, and
the traffic accounting — into a machine-readable verdict::

    {"name": ..., "kind": ..., "ok": true/false,
     "observed": ..., "expected": ..., "detail": ...}

Kinds:

- ``latency`` — a percentile/mean bound (milliseconds) over the traffic
  generator's completed-request samples, optionally restricted to requests
  issued after ``after`` seconds (e.g. "p99 ≤ X once the view has
  re-stabilised after the crash"), or over any obs histogram via
  ``metric``.
- ``counter`` — bounds (``max`` / ``min`` / ``equals``) on any obs
  counter, e.g. ``client.timeouts ≤ 0`` or ``client.rebinds ≥ 1``.
- ``accounting`` — no lost replies: every issued request resolved
  (``offered == shed + completed + errors``), with an optional
  ``max_errors`` bound.
- ``reconciliation`` — per-kind protocol sends reconcile exactly (±0)
  with network hop counts (:func:`repro.obs.reconcile_traffic`).
- ``message_budget`` — a maximum ratio between two obs counters, e.g.
  ``gc.sent.null / gc.delivered <= 1.5``: the protocol-overhead budget
  that keeps liveliness traffic proportional to useful work.
- ``degradation`` — graceful-degradation under overload: goodput
  (completed requests per second of traffic window) must stay at or above
  ``min_goodput_fraction`` of the declared ``capacity`` even when the
  offered load is a multiple of it, the latency percentile of *admitted*
  (completed) calls stays bounded, and the shed ratio stays under
  ``max_shed_ratio``.  This is the SLO an admission-controlled group
  passes and an uncontrolled one fails when driven past saturation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.obs import reconcile_traffic

__all__ = ["SLO_KINDS", "build_slos", "evaluate_slos", "SloContext"]

SLO_KINDS = (
    "latency", "counter", "accounting", "reconciliation", "message_budget",
    "degradation",
)

_LATENCY_STATS = ("mean", "p50", "p95", "p99", "max")


class SloContext:
    """Everything an SLO may inspect after a run."""

    def __init__(
        self,
        metrics,
        stats,
        snapshot: Dict[str, Dict],
        duration: Optional[float] = None,
    ):
        self.metrics = metrics  # the MetricsRegistry
        self.stats = stats  # TrafficStats
        self.snapshot = snapshot  # metrics snapshot dict
        self.duration = duration  # traffic window in seconds (for goodput)


def _percentile(sorted_values: List[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


class _Slo:
    kind = ""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, ctx: SloContext) -> Dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def _verdict(self, ok: bool, observed, expected, detail: str = "") -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": bool(ok),
            "observed": observed,
            "expected": expected,
            "detail": detail,
        }


class LatencySlo(_Slo):
    kind = "latency"

    def __init__(
        self,
        name: str,
        stat: str,
        max_ms: float,
        after: Optional[float] = None,
        metric: Optional[str] = None,
        min_count: int = 1,
    ):
        super().__init__(name)
        if stat not in _LATENCY_STATS:
            raise ValueError(f"latency stat must be one of {_LATENCY_STATS}, got {stat!r}")
        if metric is not None and after is not None:
            raise ValueError("'after' applies to traffic samples, not obs histograms")
        self.stat = stat
        self.max_ms = float(max_ms)
        self.after = after
        self.metric = metric
        self.min_count = int(min_count)

    def evaluate(self, ctx: SloContext) -> Dict:
        if self.metric is not None:
            summary = ctx.metrics.histogram_summary(self.metric)
            if summary is None or not summary["count"]:
                return self._verdict(
                    False, None, f"{self.stat} <= {self.max_ms}ms",
                    f"histogram {self.metric!r} has no observations",
                )
            count = summary["count"]
            observed_s = summary[self.stat]
        else:
            values = sorted(
                latency
                for issued_at, latency in ctx.stats.samples
                if self.after is None or issued_at >= self.after
            )
            count = len(values)
            if count == 0:
                return self._verdict(
                    False, None, f"{self.stat} <= {self.max_ms}ms",
                    "no completed requests in the evaluation window",
                )
            if self.stat == "mean":
                observed_s = sum(values) / count
            elif self.stat == "max":
                observed_s = values[-1]
            else:
                observed_s = _percentile(values, float(self.stat[1:]) / 100.0)
        observed_ms = observed_s * 1e3
        ok = observed_ms <= self.max_ms and count >= self.min_count
        window = f" after t={self.after}s" if self.after is not None else ""
        source = self.metric or "scenario latency samples"
        return self._verdict(
            ok,
            round(observed_ms, 6),
            f"{self.stat} <= {self.max_ms}ms",
            f"{self.stat}({source}{window}) over {count} requests",
        )


class CounterSlo(_Slo):
    kind = "counter"

    def __init__(
        self,
        name: str,
        counter: str,
        max: Optional[int] = None,  # noqa: A002 - spec field name
        min: Optional[int] = None,  # noqa: A002 - spec field name
        equals: Optional[int] = None,
    ):
        super().__init__(name)
        if max is None and min is None and equals is None:
            raise ValueError(f"counter SLO {name!r} needs max, min, or equals")
        self.counter = counter
        self.max = max
        self.min = min
        self.equals = equals

    def evaluate(self, ctx: SloContext) -> Dict:
        value = ctx.metrics.counter_value(self.counter)
        bounds = []
        ok = True
        if self.max is not None:
            bounds.append(f"<= {self.max}")
            ok = ok and value <= self.max
        if self.min is not None:
            bounds.append(f">= {self.min}")
            ok = ok and value >= self.min
        if self.equals is not None:
            bounds.append(f"== {self.equals}")
            ok = ok and value == self.equals
        return self._verdict(ok, value, " and ".join(bounds), self.counter)


class AccountingSlo(_Slo):
    """Zero lost replies: the open-loop ledger must balance after drain."""

    kind = "accounting"

    def __init__(self, name: str, max_errors: Optional[int] = None):
        super().__init__(name)
        self.max_errors = max_errors

    def evaluate(self, ctx: SloContext) -> Dict:
        stats = ctx.stats.snapshot()
        ok = stats["lost"] == 0
        detail_parts = [f"lost={stats['lost']}"]
        if self.max_errors is not None:
            ok = ok and stats["errors"] <= self.max_errors
            detail_parts.append(f"errors={stats['errors']} (max {self.max_errors})")
        return self._verdict(ok, stats, "lost == 0", ", ".join(detail_parts))


class ReconciliationSlo(_Slo):
    """Every gc.sent.<kind> must match net.hops.<kind> exactly (±0)."""

    kind = "reconciliation"

    def evaluate(self, ctx: SloContext) -> Dict:
        table = reconcile_traffic(ctx.snapshot)
        mismatches = {
            kind: {"gc": sent, "net": hops}
            for kind, (sent, hops) in sorted(table.items())
            if sent != hops
        }
        return self._verdict(
            not mismatches,
            mismatches or "all kinds reconcile",
            "gc sends == net hops (±0) for every kind",
            f"{len(table)} kinds checked",
        )


class MessageBudgetSlo(_Slo):
    """Bound the ratio of one obs counter to another.

    The canonical use is a protocol-traffic budget: NULL/control sends per
    delivered multicast must stay under ``max_ratio``.  A zero denominator
    passes only if the numerator is also zero (no useful work should mean
    no overhead traffic either).
    """

    kind = "message_budget"

    def __init__(self, name: str, numerator: str, denominator: str, max_ratio: float):
        super().__init__(name)
        if max_ratio < 0:
            raise ValueError(f"message_budget SLO {name!r} needs max_ratio >= 0")
        self.numerator = numerator
        self.denominator = denominator
        self.max_ratio = float(max_ratio)

    def evaluate(self, ctx: SloContext) -> Dict:
        num = ctx.metrics.counter_value(self.numerator)
        den = ctx.metrics.counter_value(self.denominator)
        expected = f"{self.numerator} / {self.denominator} <= {self.max_ratio}"
        if den == 0:
            return self._verdict(
                num == 0,
                {"numerator": num, "denominator": 0},
                expected,
                "denominator is zero: budget requires a zero numerator",
            )
        ratio = num / den
        return self._verdict(
            ratio <= self.max_ratio,
            round(ratio, 6),
            expected,
            f"{self.numerator}={num}, {self.denominator}={den}",
        )


class DegradationSlo(_Slo):
    """Graceful degradation under overload (the flash-crowd verdict).

    ``capacity`` declares the group's measured sustainable throughput in
    requests/second (establish it with a separate capacity run, e.g.
    ``benchmarks/bench_overload.py``).  When offered load exceeds it, a
    well-behaved deployment keeps *goodput* — completed requests per second
    of the traffic window — at or above ``min_goodput_fraction * capacity``
    by shedding the excess early, keeps the ``stat`` latency of the calls
    it *did* admit under ``max_ms``, and sheds no more than
    ``max_shed_ratio`` of what was offered.
    """

    kind = "degradation"

    def __init__(
        self,
        name: str,
        capacity: float,
        min_goodput_fraction: float = 0.8,
        stat: str = "p99",
        max_ms: Optional[float] = None,
        max_shed_ratio: Optional[float] = None,
        min_count: int = 1,
    ):
        super().__init__(name)
        if capacity <= 0:
            raise ValueError(f"degradation SLO {name!r} needs capacity > 0")
        if not 0.0 < min_goodput_fraction <= 1.0:
            raise ValueError(
                f"degradation SLO {name!r} needs min_goodput_fraction in (0, 1]"
            )
        if stat not in _LATENCY_STATS:
            raise ValueError(f"latency stat must be one of {_LATENCY_STATS}, got {stat!r}")
        if max_shed_ratio is not None and not 0.0 <= max_shed_ratio <= 1.0:
            raise ValueError(
                f"degradation SLO {name!r} needs max_shed_ratio in [0, 1]"
            )
        self.capacity = float(capacity)
        self.min_goodput_fraction = float(min_goodput_fraction)
        self.stat = stat
        self.max_ms = None if max_ms is None else float(max_ms)
        self.max_shed_ratio = max_shed_ratio
        self.min_count = int(min_count)

    def evaluate(self, ctx: SloContext) -> Dict:
        if ctx.duration is None:
            return self._verdict(
                False, None, "goodput floor",
                "no traffic duration in context: cannot compute goodput",
            )
        stats = ctx.stats.snapshot()
        goodput = stats["completed"] / ctx.duration
        floor = self.min_goodput_fraction * self.capacity
        checks = []
        ok = goodput >= floor
        checks.append(f"goodput={goodput:.1f}/s (floor {floor:.1f}/s)")
        values = sorted(latency for _at, latency in ctx.stats.samples)
        count = len(values)
        observed_ms = None
        if self.max_ms is not None:
            if count == 0:
                ok = False
                checks.append("no admitted completions for the latency bound")
            else:
                if self.stat == "mean":
                    observed_s = sum(values) / count
                elif self.stat == "max":
                    observed_s = values[-1]
                else:
                    observed_s = _percentile(values, float(self.stat[1:]) / 100.0)
                observed_ms = observed_s * 1e3
                ok = ok and observed_ms <= self.max_ms
                checks.append(
                    f"admitted {self.stat}={observed_ms:.1f}ms (max {self.max_ms}ms)"
                )
        shed_ratio = stats["shed"] / stats["offered"] if stats["offered"] else 0.0
        if self.max_shed_ratio is not None:
            ok = ok and shed_ratio <= self.max_shed_ratio
            checks.append(
                f"shed_ratio={shed_ratio:.3f} (max {self.max_shed_ratio})"
            )
        ok = ok and count >= self.min_count
        observed = {
            "goodput_per_s": round(goodput, 3),
            "shed_ratio": round(shed_ratio, 6),
            "completed": stats["completed"],
            "shed": stats["shed"],
            "offered": stats["offered"],
        }
        if observed_ms is not None:
            observed[f"admitted_{self.stat}_ms"] = round(observed_ms, 3)
        return self._verdict(
            ok,
            observed,
            f"goodput >= {self.min_goodput_fraction} * {self.capacity}/s",
            "; ".join(checks),
        )


_BUILDERS = {
    "latency": (LatencySlo, {"stat", "max_ms", "after", "metric", "min_count"}),
    "counter": (CounterSlo, {"counter", "max", "min", "equals"}),
    "accounting": (AccountingSlo, {"max_errors"}),
    "reconciliation": (ReconciliationSlo, set()),
    "message_budget": (MessageBudgetSlo, {"numerator", "denominator", "max_ratio"}),
    "degradation": (
        DegradationSlo,
        {
            "capacity", "min_goodput_fraction", "stat", "max_ms",
            "max_shed_ratio", "min_count",
        },
    ),
}


def build_slos(specs: Sequence[Dict]) -> List[_Slo]:
    """Build SLO objects from spec dicts, validating keys up front."""
    slos: List[_Slo] = []
    for index, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise ValueError(f"SLO spec must be a dict, got {type(spec).__name__}")
        kind = spec.get("kind")
        if kind not in _BUILDERS:
            raise ValueError(f"unknown SLO kind {kind!r}; expected one of {SLO_KINDS}")
        cls, allowed = _BUILDERS[kind]
        unknown = set(spec) - allowed - {"kind", "name"}
        if unknown:
            raise ValueError(f"SLO spec for {kind!r} has unknown keys {sorted(unknown)}")
        kwargs = {key: spec[key] for key in allowed if key in spec}
        name = spec.get("name", f"{kind}-{index}")
        slos.append(cls(name, **kwargs))
    return slos


def evaluate_slos(slos: Sequence[_Slo], ctx: SloContext) -> List[Dict]:
    return [slo.evaluate(ctx) for slo in slos]
