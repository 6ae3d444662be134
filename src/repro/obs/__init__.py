"""Unified observability for the NewTop reproduction (`repro.obs`).

One :class:`Observability` object per :class:`~repro.sim.core.Simulator`
bundles

- a :class:`~repro.obs.tracer.Tracer` emitting causal span trees stamped
  with virtual sim time (one tree per client invocation, covering the
  paper's fig. 9 m1-m6 message path), with head-based sampling via
  :class:`~repro.obs.tracer.TraceConfig` for always-on deployments,
- a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  HDR-style histograms (latency percentiles, CPU queueing delays, and
  per-kind protocol traffic: data / NULL / ticket / membership / control /
  retransmit),
- a :class:`~repro.obs.flight.FlightRecorder` — per-node ring buffers of
  compact protocol events (send/deliver/ticket/flush/view/suspect/restart)
  dumped into reports when an SLO or invariant verdict fails, and
- the index of invocations in flight (``calls``), whose records the
  layers a call crosses stamp so that the client can tile its latency into
  queue / order / flush / execute / reply phases (``inv.phase.*``
  histograms, :func:`repro.core.client.phase_tiling`).

Metrics, the flight recorder and the phase stamps are always on (they are
cheap and deterministic); span recording is opt-in via
``Observability(trace=True)`` (or a :class:`TraceConfig` for sampled
tracing), or the process-wide :func:`configure` options behind the
``python -m repro.bench --trace`` flag.

The module deliberately imports nothing from the rest of ``repro`` so every
layer — including the simulation kernel — can depend on it.
"""

from __future__ import annotations

from typing import Any, Dict, IO, List, Optional, Tuple, Union

from repro.obs.exporters import (
    build_trees,
    read_jsonl,
    render_metrics_table,
    render_timeline,
    spans_by_trace,
    write_jsonl,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    merge_snapshots,
)
from repro.obs.tracer import UNSAMPLED, Span, TraceConfig, Tracer

__all__ = [
    "Observability",
    "TraceSink",
    "configure",
    "reconcile_traffic",
    "Tracer",
    "TraceConfig",
    "Span",
    "UNSAMPLED",
    "FlightRecorder",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "merge_snapshots",
    "diff_snapshots",
    "write_jsonl",
    "read_jsonl",
    "build_trees",
    "spans_by_trace",
    "render_timeline",
    "render_metrics_table",
]


class Observability:
    """Tracer + metrics + flight recorder + call index for one run.

    ``trace`` accepts either a bool (full tracing on/off) or a
    :class:`TraceConfig` (tracing on, with that sampling rate).
    """

    def __init__(self, trace: Union[bool, TraceConfig] = False):
        self.metrics = MetricsRegistry()
        if isinstance(trace, TraceConfig):
            self.tracer = Tracer(enabled=True, config=trace)
        else:
            self.tracer = Tracer(enabled=bool(trace))
        self.flight = FlightRecorder()
        #: the invocation layer's calls in flight, call id -> the binding's
        #: pending call (its phase record), and how many have an open flush
        #: hold: sessions stamp arrivals while a call is in flight, and
        #: report sends to ``on_hold`` while a hold is open
        self.calls: Dict[Tuple[str, int], Any] = {}
        self.open_holds = 0
        self.sim = None  # bound by Simulator.__init__
        tracer = self.tracer
        self.metrics.pull_counter("obs.spans_dropped", lambda: tracer.dropped)
        self.metrics.pull_counter("obs.roots_sampled", lambda: tracer.sampled_roots)
        self.metrics.pull_counter("obs.roots_unsampled", lambda: tracer.unsampled_roots)

    def bind(self, sim) -> "Observability":
        """Attach to a simulator: spans and flight events are stamped with
        its virtual clock, and the ``sim.*`` gauges read it."""
        if self.sim is None:
            self.metrics.pull_gauge("sim.virtual_time", lambda: self.sim.now)
            self.metrics.pull_gauge("sim.events_processed", lambda: self.sim.events_processed)
        self.sim = sim
        self.tracer.clock = lambda: sim.now
        self.flight.clock = sim
        return self

    # ------------------------------------------------------------------
    # snapshots / export
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Dict]:
        """The registry's snapshot, kernel and tracer values pulled in it."""
        return self.metrics.snapshot()

    def trace_records(self) -> List[Dict[str, Any]]:
        return self.tracer.records()

    def dump_trace(self, destination: Union[str, IO[str]]) -> int:
        """Write this run's spans as JSONL; returns the number written."""
        return write_jsonl(destination, self.trace_records())


class TraceSink:
    """Aggregates observability across several simulation runs.

    Benchmark sweeps build one fresh simulator per measured point; the sink
    collects every run's spans (stamped with a run index) and metrics so the
    CLI can emit one combined trace file and one combined snapshot table.
    """

    def __init__(self):
        self.runs: List[Observability] = []

    def register(self, obs: Observability) -> int:
        self.runs.append(obs)
        return len(self.runs) - 1

    def records(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        for run_index, obs in enumerate(self.runs):
            for record in obs.trace_records():
                record = dict(record)
                record["run"] = run_index
                # namespace ids so traces from different runs cannot collide
                record["trace"] = f"{run_index}:{record['trace']}"
                records.append(record)
        return records

    def write_jsonl(self, destination: Union[str, IO[str]]) -> int:
        return write_jsonl(destination, self.records())

    def merged_metrics(self) -> Dict[str, Dict]:
        return merge_snapshots(obs.metrics_snapshot() for obs in self.runs)

    def dropped_spans(self) -> int:
        return sum(obs.tracer.dropped for obs in self.runs)


def reconcile_traffic(snapshot: Dict[str, Dict]) -> Dict[str, Tuple[int, int]]:
    """Cross-check per-kind protocol sends against network hop counts.

    Returns ``{kind: (gc_sent, net_hops)}`` for every protocol-message kind
    the gc layer sent.  In a correctly-attributed run the two numbers match
    exactly (±0): every ``gc.sent.<kind>`` increment corresponds to exactly
    one ``Node.send(..., kind=...)`` and therefore one recorded hop.
    """
    counters = snapshot.get("counters", {})
    prefix = "gc.sent."
    return {
        name[len(prefix):]: (value, counters.get(f"net.hops.{name[len(prefix):]}", 0))
        for name, value in counters.items()
        if name.startswith(prefix)
    }


#: Process-wide defaults consulted by Simulator when no explicit
#: Observability is injected.  The bench CLI sets these from --trace /
#: --trace-sample / --metrics so existing workloads emit traces with zero
#: code changes.
_GLOBAL_OPTIONS: Dict[str, Any] = {"trace": False, "sample_rate": None, "sink": None}


def configure(
    trace: Optional[bool] = None,
    sink: Optional[TraceSink] = None,
    sample_rate: Optional[float] = None,
) -> None:
    """Set process-wide observability defaults (None leaves trace as-is).

    ``configure(trace=False, sink=None)`` restores the defaults (including
    the sample rate, which is cleared unless explicitly passed).
    """
    if trace is not None:
        _GLOBAL_OPTIONS["trace"] = trace
    _GLOBAL_OPTIONS["sample_rate"] = sample_rate
    _GLOBAL_OPTIONS["sink"] = sink


def observability_from_global_options() -> Observability:
    """Build the default Observability for a new Simulator."""
    trace = _GLOBAL_OPTIONS["trace"]
    sample_rate = _GLOBAL_OPTIONS["sample_rate"]
    if trace and sample_rate is not None:
        obs = Observability(trace=TraceConfig(sample_rate=sample_rate))
    else:
        obs = Observability(trace=trace)
    sink = _GLOBAL_OPTIONS["sink"]
    if sink is not None:
        sink.register(obs)
    return obs
