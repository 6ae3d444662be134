"""Causal tracing over the discrete-event simulator.

The tracer produces **span** records stamped with virtual sim time.  Causal
links come from two mechanisms:

1. **Scheduler propagation** — the simulation kernel captures the ambient
   span (``Tracer.ctx``) whenever a callback is scheduled and restores it
   around the callback's execution (see :mod:`repro.sim.core`).  Because
   every cross-node hop in the simulator is a scheduled callback, the
   span of the *sender* flows to the *receiver* without touching a single
   message format (and therefore without perturbing message sizes or
   timing).

2. **The message carries its sender's span** — group-ordered delivery is
   triggered by whichever protocol message unblocked it (a ticket, a later
   timestamp), which is not the message's causal origin.  The sending
   session puts its send-span on the ``DataMsg`` (a slot that is never
   marshalled); the delivering session parents the delivery span on it.

(Per-kind network hop attribution deliberately does *not* ride the
context: the context flows downstream through the scheduler, so a reply sent
while processing a delivered message would inherit the request's kind.  Hop
kinds are threaded explicitly via ``Node.send(..., kind=...)`` instead.)

Span ids are sequential integers; with a fixed seed two runs produce
identical traces.

**Head-based sampling** (:class:`TraceConfig`) keeps tracing affordable on
always-on deployments: the sampling decision is made once, where a new
trace *root* would be allocated (a client invocation, a NULL heartbeat, a
membership action).  A head-sampled-out root makes :data:`UNSAMPLED` the
ambient value, so every downstream instrumentation site pays one identity
check.  Sampling is systematic (an accumulator, not an RNG): a rate of 0.01
records exactly every 100th root, deterministically, so same-seed runs
still produce identical sampled span ids.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "TraceConfig", "Tracer", "UNSAMPLED"]

#: Upper bound on retained span records (a runaway-trace backstop; the
#: exporter reports how many were dropped).
MAX_SPANS = 500_000

#: The ambient value below a head-sampled-out root: no site records a span
#: while it is ``Tracer.ctx``.
UNSAMPLED: Any = object()


class TraceConfig:
    """Tracing policy: the head-sampling rate."""

    __slots__ = ("sample_rate",)

    def __init__(self, sample_rate: float = 1.0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = float(sample_rate)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceConfig rate={self.sample_rate}>"


class Span:
    """One traced operation: a named interval of virtual time on one node."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "kind",
        "node",
        "start",
        "end",
        "attrs",
        "events",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        node: Optional[str],
        start: float,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []

    def to_record(self) -> Dict[str, Any]:
        record = {
            "type": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if self.events:
            record["events"] = [
                {"t": t, "name": name, **({"attrs": attrs} if attrs else {})}
                for t, name, attrs in self.events
            ]
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Span #{self.span_id} {self.name}@{self.node} t={self.start:.6f}>"


class Tracer:
    """Span recorder + ambient span holder for one simulation run.

    ``ctx`` is the ambient value: the active :class:`Span`, :data:`UNSAMPLED`
    below a head-sampled-out root, or None.  The simulation kernel snapshots
    and restores it around every scheduled callback; a site that opens a
    span swaps it in directly and puts the previous value back afterwards.

    When ``enabled`` is False no spans are recorded and ``ctx`` stays None —
    the tracing hot paths reduce to a couple of attribute reads.  A site
    records only when ``enabled and ctx is not UNSAMPLED``.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = False,
        config: Optional[TraceConfig] = None,
    ):
        self.clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.config = config or TraceConfig()
        self.ctx: Any = None
        self.spans: List[Span] = []
        self.dropped = 0
        self.sampled_roots = 0
        self.unsampled_roots = 0
        self._next_id = 1
        #: systematic-sampling accumulator for ``config.sample_rate``
        self._sample_acc = 0.0

    def _sample_root(self) -> bool:
        """Head decision for a would-be trace root.  Systematic: an
        accumulator records exactly ``sample_rate`` of the roots."""
        r = self.config.sample_rate
        if r >= 1.0:
            self.sampled_roots += 1
            return True
        if r <= 0.0:
            self.unsampled_roots += 1
            return False
        acc = self._sample_acc + r
        if acc >= 1.0:
            self._sample_acc = acc - 1.0
            self.sampled_roots += 1
            return True
        self._sample_acc = acc
        self.unsampled_roots += 1
        return False

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        kind: str = "internal",
        node: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
        parent: Any = "ambient",
    ) -> Optional[Span]:
        """Open a span.  ``parent`` defaults to the ambient span; pass an
        explicit :class:`Span` (or None for a new trace root) to override.
        Returns None when tracing is disabled, when the ambient value is
        :data:`UNSAMPLED`, or when this would root a new trace and the
        head-sampling decision (the config's ``sample_rate``) says no."""
        if not self.enabled:
            return None
        if parent == "ambient":
            parent = self.ctx
            if parent is UNSAMPLED:
                return None
        if parent is None and not self._sample_root():
            return None
        span_id = self._next_id
        self._next_id += 1
        trace_id = parent.trace_id if parent is not None else span_id
        span = Span(
            trace_id,
            span_id,
            parent.span_id if parent is not None else None,
            name,
            kind,
            node,
            self.clock(),
        )
        if attrs:
            span.attrs.update(attrs)
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    def end_span(self, span: Optional[Span], **attrs: Any) -> None:
        if span is None:
            return
        span.end = self.clock()
        if attrs:
            span.attrs.update(attrs)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def event(self, name: str, span: Optional[Span] = None, **attrs: Any) -> None:
        """Record a point-in-time event on ``span`` (default: ambient span)."""
        if not self.enabled:
            return
        target = span if span is not None else self.ctx
        if target is not None and target is not UNSAMPLED:
            target.events.append((self.clock(), name, attrs))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        return [span.to_record() for span in self.spans]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} spans={len(self.spans)}>"
