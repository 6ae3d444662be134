"""Discrete-event simulation kernel.

The kernel is deliberately small: a virtual clock, a priority queue of
scheduled callbacks, deterministic tie-breaking, re-armable timers
(:class:`Deadline`), and the serial processors (:class:`Cpu`) that hosts
queue their work on.  Everything above it (network, ORB, group protocols)
is written as event handlers and generator-based processes (see
:mod:`repro.sim.process`).

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

from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import Observability, observability_from_global_options
from repro.obs.metrics import CHUNK, Histogram
from repro.sim.rng import RngRegistry

__all__ = ["Simulator", "ScheduledEvent", "SimulationError", "Cpu", "Deadline"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class ScheduledEvent(list):
    """Handle for a scheduled callback; supports cancellation.

    The handle *is* the kernel's heap entry,
    ``[time, seq, fn, args, ctx, life]``: ``seq`` is unique, so heap
    comparisons resolve on the first two slots at C speed.  ``life`` is None
    for an ordinary event; a CPU job (:meth:`Cpu.submit`) carries its
    processor incarnation's liveness token there, and the loop counts the
    job but skips ``fn`` once ``life.alive`` is false.  A :class:`Deadline`'s
    entry has neither ``fn`` nor ``args``, and the deadline itself in
    ``life``.  A message's arrival (``Network.transmit``) has no ``fn``,
    ``(cost, handler, *handler_args)`` in ``args`` and the destination
    :class:`Cpu` in ``life``; the loop re-keys that same list as the
    receive job.  Only such never-handed-out lists are re-keyed: a handle
    :meth:`Simulator.schedule` gives out keeps its key.  The layout is
    private to the kernel and the network — callers use :meth:`cancel`.
    Cancellation is O(1): the entry stays in the heap with ``fn`` cleared
    and is skipped when it reaches the head.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent; a no-op once it ran."""
        self[2] = None


class Deadline:
    """A re-armable timer: ``fn(*args)`` at ``due``, for a debt that the next
    send usually pays before it falls due (an ack, a NULL, a ticket batch).

    ``arm(delay)`` is :meth:`Simulator.schedule` after cancelling the
    previous arm, and assigning ``due = None`` (disarm) is ``cancel()`` —
    exactly: arming reserves the ``seq`` that ``schedule`` would have drawn
    at that moment, so the callback runs at the same ``(due, seq)``, counted
    like any event, under the trace context of the latest arm.  What it
    saves is kernel work.  Disarming is a field write, and an arm pushes a
    heap entry only when the deadline has none pending at or before ``due``.
    The run loop takes a deadline's entry on its cancelled-entry branch:
    one that reaches the head after its deadline moved later goes back in at
    the reserved ``(due, seq)``, and one the deadline no longer owns
    (re-armed earlier, or disarmed) is dropped, uncounted.

    ``due`` is when the callback runs, or None while disarmed; the callback
    finds it None, and may arm again.
    """

    __slots__ = ("due", "fn", "args", "_sim", "_seq", "_ctx", "_entry")

    def __init__(self, sim: "Simulator", fn: Callable, *args: Any):
        self.due: Optional[float] = None
        self.fn = fn
        self.args = args
        self._sim = sim
        self._seq = 0  # the reserved tie-break of the latest arm
        self._ctx = None  # the trace context of the latest arm
        self._entry: Optional[list] = None  # the heap entry it owns, if any

    def arm(self, delay: float) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now instead of at ``due``."""
        if delay < 0:
            raise SimulationError(f"cannot arm in the past (delay={delay})")
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        self._seq = seq
        self.due = due = sim.now + delay
        self._ctx = sim._tracer.ctx
        entry = self._entry
        if entry is None or entry[0] > due:
            # none pending at or before due: a fresh entry (any later one
            # is stranded, and dropped when it surfaces)
            self._entry = entry = [due, seq, None, None, None, self]
            if sim._vacant:
                sim._vacant = False
                heapreplace(sim._queue, entry)
            else:
                heappush(sim._queue, entry)


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
        # the heap root is the running event's entry, free for the first
        # entry a push site adds (``heapreplace``, not a push and a pop)
        self._vacant = False
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
        # schedule_at's entry, pushed here: a timer is armed on every hot path
        self._seq = seq = self._seq + 1
        ev = ScheduledEvent((self.now + delay, seq, fn, args, self._tracer.ctx, None))
        if self._vacant:
            self._vacant = False
            heapreplace(self._queue, ev)
        else:
            heappush(self._queue, ev)
        return ev

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        # ctx: the trace context active now, restored around the callback
        ev = ScheduledEvent((time, seq, fn, args, self._tracer.ctx, None))
        if self._vacant:
            self._vacant = False
            heapreplace(self._queue, ev)
        else:
            heappush(self._queue, ev)
        return ev

    def call_soon(self, fn: Callable, *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` at the current time, after pending same-time events."""
        return self.schedule(0.0, fn, *args)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run_loop(self, until: Optional[float], max_events: Optional[int]) -> Tuple[int, bool]:
        """The single event-execution loop behind :meth:`run`: take ready
        events (skipping cancelled ones), advance the clock, and invoke
        callbacks under the scheduled trace context — all but the CPU jobs
        of a crashed incarnation, which count as executed and do nothing.

        Returns ``(executed, hit_cap)`` where ``hit_cap`` means the
        ``max_events`` budget stopped the loop while runnable events remain.

        *Hold*: a callback runs while its entry is still the heap root, and
        the root is marked vacant (``_vacant``).  Nothing it pushes can sort
        before it (its time is ``now`` or later, its ``seq`` fresh), so the
        first push site to add an entry meanwhile replaces the root with one
        ``heapreplace``; the loop pops the entry only if the slot is still
        vacant when the callback returns or raises.

        The entries with no ``fn`` come up on one branch, so an ordinary
        event pays no check for them: a cancelled one is dropped; a
        :class:`Deadline`'s entry is dropped, pushed back, or run as a
        counted event; a message's *arrival* (``args`` set, the destination
        :class:`Cpu` in ``life``) counts as an event and becomes its receive
        job in place — :meth:`Cpu.submit`'s arithmetic, the job's ``seq``
        drawn now, and the same list re-keyed — unless the processor's
        current incarnation is dead.

        Fast path: when neither the event nor the caller carries a trace
        context (the common case with tracing off or unsampled), the tracer
        save/restore is skipped entirely — no per-event allocation, no
        try/finally.
        """
        queue = self._queue
        tracer = self._tracer
        executed = 0
        while queue:
            entry = queue[0]
            time, _seq, fn, args, ctx, life = entry
            if fn is None:
                if life is None:  # cancelled
                    heappop(queue)
                    continue
                if args is not None:
                    # an arrival: ``life`` is the destination's Cpu, ``args``
                    # ``(cost, handler, *handler_args)``
                    if until is not None and time > until:
                        break
                    if max_events is not None and executed >= max_events:
                        return executed, True
                    self.now = time
                    self._events_processed += 1
                    executed += 1
                    cpu = life
                    life = cpu._life
                    if not life.alive:
                        heappop(queue)  # the node crashed in flight
                        continue
                    # Cpu.submit, in line
                    busy = cpu.busy_until
                    start = busy if busy > time else time
                    hist = cpu._queue_delay
                    filled = hist._filled
                    hist._chunk[filled] = start - time
                    hist._filled = filled + 1
                    if filled == CHUNK - 1:
                        hist._fold()
                    cost = args[0]
                    cpu.busy_until = end = start + cost
                    cpu.busy_total += cost
                    self._seq = seq = self._seq + 1
                    entry[0] = end
                    entry[1] = seq
                    entry[2] = args[1]
                    entry[3] = args[2:]
                    entry[5] = life
                    heapreplace(queue, entry)
                    continue
                # a deadline's entry: ``life`` is the Deadline
                if life._entry is not entry or life.due is None:
                    # stranded by an earlier re-arm, or disarmed: no event
                    heappop(queue)
                    if life._entry is entry:
                        life._entry = None
                    continue
                if life._seq != _seq:
                    # re-armed later: back in at the reserved key, uncounted
                    entry[0] = life.due
                    entry[1] = life._seq
                    heapreplace(queue, entry)
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and executed >= max_events:
                    return executed, True
                life._entry = life.due = None
                fn, args, ctx, life = life.fn, life.args, life._ctx, None
            elif until is not None and time > until:
                break
            elif max_events is not None and executed >= max_events:
                # events <= until remain unprocessed: the clock must NOT
                # jump to until, or they would fire "in the past"
                return executed, True
            self.now = time
            self._events_processed += 1
            executed += 1
            if life is not None and not life.alive:
                heappop(queue)
                continue  # a CPU job of an incarnation that has crashed
            self._vacant = True
            try:
                if ctx is None and tracer.ctx is None:
                    fn(*args)
                else:
                    prev_ctx = tracer.ctx
                    tracer.ctx = ctx
                    try:
                        fn(*args)
                    finally:
                        tracer.ctx = prev_ctx
            finally:
                if self._vacant:  # the callback pushed nothing
                    self._vacant = False
                    heappop(queue)
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
        """Number of events still to run: scheduled ones not cancelled,
        arrivals, and armed deadlines, each once, and not the one running
        now (O(n); diagnostics only)."""
        running = self._queue[0] if self._vacant else None
        return sum(
            1
            for ev in self._queue
            if ev is not running
            and (
                ev[2] is not None
                or ev[5] is not None
                and (ev[3] is not None or ev[5]._entry is ev and ev[5].due is not None)
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now:.6f} pending={len(self._queue)}>"


class _Life:
    """One processor incarnation's liveness: every job it submits carries
    it, and a crash clears it, so no job of that incarnation runs afterwards."""

    __slots__ = ("alive",)

    def __init__(self):
        self.alive = True


class Cpu:
    """A serial, non-preemptive FIFO processor on the kernel's clock.

    Each :meth:`submit` occupies the processor for ``cost`` seconds, starting
    when the job before it ends (or now, when idle), and is one heap entry
    due at its finish time.  ``busy_until`` is when the last queued job ends,
    ``busy_total`` the CPU seconds of the jobs that ran or will run.  Every
    submission records its queueing delay into ``queue_delay``.
    """

    __slots__ = (
        "_sim", "_queue", "_tracer", "_queue_delay", "busy_until", "busy_total", "_life"
    )

    def __init__(self, sim: Simulator, queue_delay: Histogram):
        self._sim = sim
        self._queue = sim._queue
        self._tracer = sim._tracer
        self._queue_delay = queue_delay
        self.busy_until = 0.0
        self.busy_total = 0.0
        self._life = _Life()

    def submit(self, cost: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``cost`` seconds of CPU, FIFO-queued; a
        crashed processor takes no work."""
        life = self._life
        if not life.alive:
            return
        sim = self._sim
        now = sim.now
        busy = self.busy_until
        start = busy if busy > now else now
        # Histogram.record, in line: the histogram's chunk/fill protocol
        hist = self._queue_delay
        filled = hist._filled
        hist._chunk[filled] = start - now
        hist._filled = filled + 1
        if filled == CHUNK - 1:
            hist._fold()
        self.busy_until = until = start + cost
        self.busy_total += cost
        sim._seq = seq = sim._seq + 1
        entry = ScheduledEvent((until, seq, fn, args, self._tracer.ctx, life))
        if sim._vacant:
            sim._vacant = False
            heapreplace(self._queue, entry)
        else:
            heappush(self._queue, entry)

    def crash(self) -> None:
        """Drop every queued job for good, and the part of them that never ran
        from ``busy_total``."""
        self._life.alive = False
        now = self._sim.now
        if self.busy_until > now:
            self.busy_total -= self.busy_until - now
            self.busy_until = now

    def recover(self) -> None:
        """Take work again, idle from now; no job queued before the crash runs."""
        self._life = _Life()
        self.busy_until = self._sim.now
