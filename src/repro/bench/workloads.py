"""Workload generators: closed-loop clients and saturating peer members.

"Clients were configured to issue requests as frequently as possible: as
soon as a reply is received, another request is issued" (§5.1) — a classic
closed loop.  Peer members likewise multicast as fast as the previous
multicast becomes deliverable at every member (§5.2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core import GroupBinding, Mode
from repro.sim import Future, Simulator, spawn
from repro.bench.stats import LatencySample

__all__ = [
    "ClosedLoopClient",
    "PeerTracker",
    "PeerMember",
    "run_until_done",
]


def run_until_done(
    sim: Simulator,
    futures: List[Future],
    deadline: float,
    max_events: int = 2048,
) -> None:
    """Run the simulator until all futures resolve or ``deadline`` passes.

    (Plain ``sim.run()`` never returns in lively groups — heartbeat timers
    reschedule forever — so experiments advance in bounded slices.)

    Slices are **event-count-bounded** (``max_events`` callbacks per
    slice), not fixed time slices: an idle stretch costs nothing extra,
    and a busy group is checked at a granularity that tracks its own
    activity — long scenarios no longer pay O(deadline/step) wakeups.
    """
    pending = [f for f in futures if not f.done]
    while sim.now < deadline:
        pending = [f for f in pending if not f.done]
        if not pending:
            return
        # a slice that finds nothing to execute before the deadline (queue
        # drained, or only later events remain) advances the clock to it
        sim.run(until=deadline, max_events=max_events)
    if not all(f.done for f in futures):
        unfinished = [f.name for f in futures if not f.done]
        raise RuntimeError(f"workload did not finish by t={deadline}: {unfinished}")


class ClosedLoopClient:
    """Issues requests back-to-back and records their latency.

    ``issue(i)`` starts request ``i`` and returns its future; left out, it
    is ``operation(*args)`` through ``binding`` in ``mode``.  Request ``i``
    is untimed while ``i < warmup``.  ``name`` labels the driver process.
    """

    def __init__(
        self,
        sim: Simulator,
        binding: Optional[GroupBinding] = None,
        operation: str = "draw",
        args: Tuple = (),
        mode: str = Mode.ALL,
        requests: int = 100,
        warmup: int = 5,
        timeout: float = 30.0,
        issue: Optional[Callable[[int], Future]] = None,
        name: Optional[str] = None,
    ):
        if issue is None:
            name = name or f"client:{binding.client_id}"

            def issue(_i: int) -> Future:
                return binding.invoke(operation, args, mode=mode, timeout=timeout)

        self.sim = sim
        self.issue = issue
        self.requests = requests
        self.warmup = warmup
        self.latencies = LatencySample()
        #: the timed latencies summed in completion order: the gated means
        #: divide this, because summing the sorted sample (``summarize``) or a
        #: compensated ``sum()`` (3.12+) can differ from it in the last ulp
        self.latency_sum = 0.0
        self.first_timed_start: Optional[float] = None
        self.last_completion: Optional[float] = None
        self.errors = 0
        self.done = spawn(sim, self._loop(), name=name or "closed-loop")

    def _loop(self):
        from repro.errors import BindingBroken

        for i in range(self.warmup + self.requests):
            timed = i >= self.warmup
            start = self.sim.now
            if timed and self.first_timed_start is None:
                self.first_timed_start = start
            try:
                yield self.issue(i)
            except BindingBroken:
                self.errors += 1
                return self.latencies  # the binding is gone for good
            except Exception:  # noqa: BLE001 - count and continue
                self.errors += 1
                continue
            if timed:
                self.latencies.add(self.sim.now - start)
                self.latency_sum += self.sim.now - start
                self.last_completion = self.sim.now
        return self.latencies

class PeerTracker:
    """Observes when a multicast has been delivered at every member."""

    def __init__(self, member_names: List[str]):
        self.members = list(member_names)
        self._outstanding: Dict[str, Tuple[set, Future]] = {}

    def expect(self, tag: str) -> Future:
        future = Future(name=f"peer:{tag}")
        self._outstanding[tag] = (set(), future)
        return future

    def delivered(self, member: str, tag: str) -> None:
        entry = self._outstanding.get(tag)
        if entry is None:
            return
        seen, future = entry
        seen.add(member)
        if len(seen) >= len(self.members):
            del self._outstanding[tag]
            future.try_resolve(None)


class PeerMember:
    """A peer-group member multicasting "as frequently as possible" (§5.2).

    Sends are pipelined under a flow-control window: up to ``window``
    multicasts may be awaiting group-wide delivery at once (the paper's
    members issue asynchronous one-way sends back to back; they do not
    stop-and-wait).  Latency is measured per multicast from issue until it
    has become deliverable at every member.
    """

    def __init__(
        self,
        sim: Simulator,
        session,
        tracker: PeerTracker,
        multicasts: int = 100,
        payload_chars: int = 100,
        warmup: int = 3,
        window: int = 8,
    ):
        self.sim = sim
        self.session = session
        self.tracker = tracker
        self.multicasts = multicasts
        self.payload_chars = payload_chars
        self.warmup = warmup
        self.window = window
        self.latencies = LatencySample()
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.done = spawn(sim, self._loop(), name=f"peer:{session.member_id}")

    def _loop(self):
        me = self.session.member_id
        total = self.warmup + self.multicasts
        in_flight: List[Future] = []
        for i in range(total):
            timed = i >= self.warmup
            tag = f"{me}:{i}"
            body = tag.ljust(self.payload_chars, ".")
            delivered_everywhere = self.tracker.expect(tag)
            start = self.sim.now
            if timed and self.start_time is None:
                self.start_time = start

            def record(_fut, timed=timed, start=start):
                if timed:
                    self.latencies.add(self.sim.now - start)
                    self.end_time = self.sim.now

            delivered_everywhere.add_done_callback(record)
            self.session.send(body)
            in_flight.append(delivered_everywhere)
            while sum(1 for f in in_flight if not f.done) >= self.window:
                # window full: wait for the oldest outstanding multicast
                oldest = next(f for f in in_flight if not f.done)
                yield oldest
            in_flight = [f for f in in_flight if not f.done]
        for fut in in_flight:
            if not fut.done:
                yield fut
        return self.latencies

    @property
    def elapsed(self) -> float:
        if self.start_time is None or self.end_time is None:
            return 0.0
        return self.end_time - self.start_time

    @staticmethod
    def wire_delivery(session, tracker: PeerTracker) -> None:
        """Route a session's deliveries into the tracker."""
        member = session.member_id

        def on_deliver(sender: str, payload) -> None:
            tag = str(payload).split(".", 1)[0].rstrip(".")
            tracker.delivered(member, tag)

        session.on_deliver = on_deliver
