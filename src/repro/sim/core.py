"""Discrete-event simulation kernel.

The kernel is deliberately small: a virtual clock, a priority queue of
scheduled callbacks, and deterministic tie-breaking.  Everything above it
(network, ORB, group protocols) is written as event handlers and
generator-based processes (see :mod:`repro.sim.process`).

Determinism matters for a protocol testbed: two runs with the same seed must
produce identical histories.  The kernel therefore breaks timestamp ties by
insertion order, and all randomness flows through named, seeded streams
(:mod:`repro.sim.rng`).

The kernel is also the root of the observability layer (:mod:`repro.obs`):
every scheduled event snapshots the active trace context and restores it
around the callback's execution, so causality flows through the event loop
— across CPU queues and network hops — without any message-format changes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import Observability, observability_from_global_options
from repro.sim.rng import RngRegistry

__all__ = ["Simulator", "ScheduledEvent", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class ScheduledEvent(list):
    """Handle for a scheduled callback; supports cancellation.

    The handle *is* the kernel's heap entry,
    ``[time, seq, fn, args, ctx, life]``: ``seq`` is unique, so heap
    comparisons resolve on the first two slots at C speed.  ``life`` is None
    for an ordinary event; a CPU job (:meth:`Simulator.schedule_on`) carries
    its submitter's liveness token there, and the loop counts the job but
    skips ``fn`` once ``life.alive`` is false.  The layout is private to this
    module — callers use :attr:`time` and :meth:`cancel`.
    Cancellation is O(1): the entry stays in the heap with ``fn`` cleared and
    is skipped when it reaches the head.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Virtual time the callback is (or was) due at."""
        return self[0]

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent; a no-op once it ran."""
        self[2] = None


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator(seed=42)
        sim.schedule(1.0, print, "one virtual second later")
        sim.run()

    Time is in **seconds** (floats).  Milliseconds in reports are derived.
    """

    def __init__(self, seed: int = 0, obs: Optional[Observability] = None):
        #: current virtual time, in seconds (advanced by the event loop only)
        self.now = 0.0
        self._queue: List[ScheduledEvent] = []  # a heap of handles
        self._seq = 0  # insertion order: the tie-break among equal times
        self._rngs = RngRegistry(seed)
        self.seed = seed
        self._running = False
        self._events_processed = 0
        self.obs = (obs or observability_from_global_options()).bind(self)
        self._tracer = self.obs.tracer

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def rng(self, name: str):
        """Return the named deterministic random stream."""
        return self._rngs.stream(name)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        # ctx: the trace context active now, restored around the callback
        ev = ScheduledEvent((time, seq, fn, args, self._tracer.ctx, None))
        heappush(self._queue, ev)
        return ev

    def schedule_on(self, life: Any, time: float, fn: Callable, args: Tuple) -> None:
        """Run ``fn(*args)`` at ``time`` (not before now) if ``life.alive``
        still holds then; counted as an event either way."""
        self._seq = seq = self._seq + 1
        heappush(self._queue, ScheduledEvent((time, seq, fn, args, self._tracer.ctx, life)))

    def call_soon(self, fn: Callable, *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` at the current time, after pending same-time events."""
        return self.schedule(0.0, fn, *args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run_loop(self, until: Optional[float], max_events: Optional[int]) -> Tuple[int, bool]:
        """The single event-execution loop behind :meth:`step` and
        :meth:`run`: pop ready events (skipping cancelled ones), advance the
        clock, and invoke callbacks under the scheduled trace context — all
        but the CPU jobs of a crashed incarnation, which count as executed
        and do nothing.

        Returns ``(executed, hit_cap)`` where ``hit_cap`` means the
        ``max_events`` budget stopped the loop while runnable events remain.

        Fast path: when neither the event nor the caller carries a trace
        context (the common case with tracing off or unsampled), the tracer
        save/restore is skipped entirely — no per-event allocation, no
        try/finally.
        """
        queue = self._queue
        tracer = self._tracer
        executed = 0
        while queue:
            time, _seq, fn, args, ctx, life = queue[0]
            if fn is None:  # cancelled
                heappop(queue)
                continue
            if until is not None and time > until:
                break
            if max_events is not None and executed >= max_events:
                # events <= until remain unprocessed: the clock must NOT
                # jump to until, or they would fire "in the past"
                return executed, True
            heappop(queue)
            self.now = time
            self._events_processed += 1
            executed += 1
            if life is not None and not life.alive:
                continue  # a CPU job of an incarnation that has crashed
            if ctx is None and tracer.ctx is None:
                fn(*args)
            else:
                prev_ctx = tracer.ctx
                tracer.ctx = ctx
                try:
                    fn(*args)
                finally:
                    tracer.ctx = prev_ctx
        return executed, False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drained earlier, so repeated ``run(until=...)``
        calls see a monotonically advancing clock.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        try:
            _executed, hit_cap = self._run_loop(until, max_events)
            if until is not None and not hit_cap and self.now < until:
                self.now = until
        finally:
            self._running = False

    def pending_count(self) -> int:
        """Number of non-cancelled scheduled events (O(n); diagnostics only)."""
        return sum(1 for ev in self._queue if ev[2] is not None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now:.6f} pending={len(self._queue)}>"
