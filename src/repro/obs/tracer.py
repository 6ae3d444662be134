"""Causal tracing over the discrete-event simulator.

The tracer produces **span** records stamped with virtual sim time.  Causal
links come from two mechanisms:

1. **Scheduler propagation** — the simulation kernel captures the active
   :class:`ObsContext` whenever a callback is scheduled and restores it
   around the callback's execution (see :mod:`repro.sim.core`).  Because
   every cross-node hop in the simulator is a scheduled callback, the
   context of the *sender* flows to the *receiver* without touching a
   single message format (and therefore without perturbing message sizes
   or timing).

2. **Explicit parent stashing** — group-ordered delivery is triggered by
   whichever protocol message unblocked it (a ticket, a later timestamp),
   which is not the message's causal origin.  The sending session stashes
   its send-span under the message id; the delivering session looks it up
   and parents the delivery span explicitly.

(Per-kind network hop attribution deliberately does *not* ride the
context: the context flows downstream through the scheduler, so a reply sent
while processing a delivered message would inherit the request's kind.  Hop
kinds are threaded explicitly via ``Node.send(..., kind=...)`` instead.)

Span ids are sequential integers; with a fixed seed two runs produce
identical traces.

**Head-based sampling** (:class:`TraceConfig`) keeps tracing affordable on
always-on deployments: the sampling decision is made once, where a new
trace *root* would be allocated (a client invocation, a NULL heartbeat, a
membership action), and the verdict rides the :class:`ObsContext` so every
downstream instrumentation site pays only a boolean check.  Sampling is
systematic (an accumulator, not an RNG): a rate of 0.01 records exactly
every 100th root, deterministically, so same-seed runs still produce
identical sampled span ids.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "ObsContext", "TraceConfig", "Tracer"]

#: Upper bound on retained span records (a runaway-trace backstop; the
#: exporter reports how many were dropped).
MAX_SPANS = 500_000

#: Upper bound on stashed message-id -> span parent links.
MAX_STASH = 65_536


class TraceConfig:
    """Tracing policy: head-sampling rate and the span retention bound."""

    __slots__ = ("sample_rate", "max_spans")

    def __init__(self, sample_rate: float = 1.0, max_spans: int = MAX_SPANS):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if max_spans < 0:
            raise ValueError("max_spans must be >= 0")
        self.sample_rate = float(sample_rate)
        self.max_spans = max_spans

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceConfig rate={self.sample_rate} max_spans={self.max_spans}>"


class ObsContext:
    """The ambient observability context: the active span.

    ``sampled`` carries the head-sampling verdict of the trace this context
    belongs to: contexts descending from an unsampled root keep flowing but
    suppress span allocation everywhere downstream.
    """

    __slots__ = ("span", "sampled")

    def __init__(self, span: Optional["Span"], sampled: bool = True):
        self.span = span
        self.sampled = sampled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "" if self.sampled else " unsampled"
        return f"<ObsContext span={self.span!r}{state}>"


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
    """Span recorder + context holder for one simulation run.

    ``ctx`` is the ambient :class:`ObsContext` (or None).  The simulation
    kernel snapshots and restores it around every scheduled callback; layer
    code activates spans through the helpers below.

    When ``enabled`` is False no spans are recorded and ``ctx`` stays None —
    the tracing hot paths reduce to a couple of attribute reads.
    With sampling (``config.sample_rate < 1``) the head decision is taken
    where a trace root would be allocated; descendants of an unsampled root
    see :attr:`recording` False and skip span allocation entirely.
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
        self.ctx: Optional[ObsContext] = None
        self.spans: List[Span] = []
        self.dropped = 0
        self.sampled_roots = 0
        self.unsampled_roots = 0
        self._next_id = 1
        self._stash: "OrderedDict[Any, Span]" = OrderedDict()
        #: systematic-sampling accumulator for ``config.sample_rate``
        self._sample_acc = 0.0

    @property
    def recording(self) -> bool:
        """Whether an instrumentation site should allocate spans right now:
        tracing is on and the ambient context is not an unsampled trace."""
        if not self.enabled:
            return False
        ctx = self.ctx
        return ctx is None or ctx.sampled

    @property
    def sampling(self) -> bool:
        """Whether head-sampling is active (some roots will be dropped)."""
        return self.enabled and self.config.sample_rate < 1.0

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
        Returns None when tracing is disabled, when the ambient context
        belongs to an unsampled trace, or when this would root a new trace
        and the head-sampling decision (the config's ``sample_rate``) says
        no."""
        if not self.enabled:
            return None
        if parent == "ambient":
            ctx = self.ctx
            if ctx is not None and not ctx.sampled:
                return None
            parent = ctx.span if ctx is not None else None
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
        if len(self.spans) < self.config.max_spans:
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
    # context activation
    # ------------------------------------------------------------------
    def activate(self, span: Optional[Span]) -> Optional[ObsContext]:
        """Make ``span`` the ambient span; returns the token to restore().

        A real span only exists when its trace passed head sampling, so the
        pushed context is always marked sampled — even if the previous
        ambient context was an unsampled leftover (e.g. the scheduler chain
        of an earlier head-sampled-out invocation)."""
        prev = self.ctx
        if span is not None:
            self.ctx = ObsContext(span)
        return prev

    def restore(self, token: Optional[ObsContext]) -> None:
        self.ctx = token

    @contextmanager
    def use(self, span: Optional[Span]):
        token = self.activate(span)
        try:
            yield span
        finally:
            self.restore(token)

    @contextmanager
    def use_root(self, span: Optional[Span]):
        """Activate a would-be trace *root* span.

        Unlike :meth:`use`, a None span under active tracing means "this
        root was head-sampled out": an explicitly *unsampled* context is
        pushed so every downstream site (across scheduler hops) skips span
        allocation for this invocation.
        """
        if span is None and self.enabled:
            prev = self.ctx
            self.ctx = ObsContext(None, sampled=False)
            try:
                yield None
            finally:
                self.restore(prev)
        else:
            with self.use(span):
                yield span

    @property
    def current_span(self) -> Optional[Span]:
        return self.ctx.span if self.ctx is not None else None

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def event(self, name: str, span: Optional[Span] = None, **attrs: Any) -> None:
        """Record a point-in-time event on ``span`` (default: ambient span)."""
        if not self.enabled:
            return
        target = span if span is not None else self.current_span
        if target is not None:
            target.events.append((self.clock(), name, attrs))

    # ------------------------------------------------------------------
    # cross-message parent links
    # ------------------------------------------------------------------
    def stash_parent(self, key: Any, span: Optional[Span]) -> None:
        """Remember ``span`` as the causal parent for deliveries of ``key``."""
        if span is None:
            return
        self._stash[key] = span
        while len(self._stash) > MAX_STASH:
            self._stash.popitem(last=False)

    def stashed_parent(self, key: Any) -> Optional[Span]:
        return self._stash.get(key)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        return [span.to_record() for span in self.spans]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} spans={len(self.spans)}>"
