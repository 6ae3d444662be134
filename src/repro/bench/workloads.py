"""Workload generators: the closed-loop driver and the peer delivery tracker.

"Clients were configured to issue requests as frequently as possible: as
soon as a reply is received, another request is issued" (§5.1) — a classic
closed loop.  Peer members likewise multicast as fast as group-wide
delivery of their earlier multicasts allows (§5.2).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import GroupBinding, Mode
from repro.errors import BindingBroken
from repro.sim import Future, Simulator, spawn
from repro.bench.stats import LatencySample

__all__ = [
    "ClosedLoopClient",
    "PeerTracker",
    "run_until_done",
]


class _Drained(Exception):
    """Raised by the event that ends :func:`run_until_done`'s run."""


def run_until_done(sim: Simulator, futures: List[Future], deadline: float) -> None:
    """Run the simulator until every future in ``futures`` is done, and stop
    at the instant the last one finished (after the events already due then),
    however many events ran before it; raise if ``deadline`` passes first, and
    let no later resolution stop a run.  (Lively groups never drain.)"""
    left = [f for f in futures if not f.done]
    if not left:
        return
    active = True

    def drained() -> None:
        if active:
            raise _Drained

    def finished(_fut: Future) -> None:
        left.pop()
        if not left and active:
            sim.schedule(0.0, drained)

    for fut in left:
        fut.add_done_callback(finished)
    try:
        sim.run(until=deadline)
    except _Drained:
        return
    finally:
        active = False
    unfinished = [f.name for f in futures if not f.done]
    raise RuntimeError(f"workload did not finish by t={deadline}: {unfinished}")


class ClosedLoopClient:
    """Keeps ``window`` requests outstanding and records their latency.

    ``issue(i)`` starts request ``i`` and returns its future; left out, it
    is ``operation(*args)`` through ``binding`` in ``mode``.  Request ``i``
    is untimed while ``i < warmup``.  ``name`` labels the driver process.

    ``window=1`` is the §5.1 client; a §5.2 peer member issues asynchronous
    one-way sends back to back under a window of 8, it does not stop-and-wait.
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
        window: int = 1,
    ):
        if issue is None:
            name = name or f"client:{binding.client_id}"

            def issue(_i: int) -> Future:
                return binding.invoke(operation, args, mode=mode, timeout=timeout)

        self.sim = sim
        self.issue = issue
        self.requests = requests
        self.warmup = warmup
        self.window = window
        self.latencies = LatencySample()
        #: the timed latencies summed in completion order: the gated means
        #: divide this, because summing the sorted sample (``summarize``) or a
        #: compensated ``sum()`` (3.12+) can differ from it in the last ulp
        self.latency_sum = 0.0
        self.first_timed_start: Optional[float] = None
        self.last_completion: Optional[float] = None
        self.errors = 0
        self.outstanding = 0
        self._broken = False
        self._completion: Optional[Future] = None
        self.done = spawn(sim, self._loop(), name=name or "closed-loop")

    def _loop(self):
        for i in range(self.warmup + self.requests):
            if self._broken:
                break  # the binding is gone for good
            timed = i >= self.warmup
            start = self.sim.now
            if timed and self.first_timed_start is None:
                self.first_timed_start = start
            self.outstanding += 1
            try:
                request = self.issue(i)
            except Exception as exc:  # noqa: BLE001 - count and continue
                request = Future(name="issue-failed")
                request.fail(exc)
            # recorded in the request's done-callback, which then wakes this
            # loop: the call stack of resuming on the request itself, no event moves
            request.add_done_callback(partial(self._completed, timed, start))
            yield from self._until_outstanding_below(self.window)
        yield from self._until_outstanding_below(1)
        return self.latencies

    def _until_outstanding_below(self, bound: int):
        while self.outstanding >= bound:
            self._completion = Future(name="completion")
            yield self._completion

    def _completed(self, timed: bool, start: float, request: Future) -> None:
        self.outstanding -= 1
        if request.failed:
            self.errors += 1
            if isinstance(request.exception, BindingBroken):
                self._broken = True
        elif timed:
            self.latencies.add(self.sim.now - start)
            self.latency_sum += self.sim.now - start
            self.last_completion = self.sim.now
        if self._completion is not None:
            completion, self._completion = self._completion, None
            completion.resolve()


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

    def wire(self, session) -> None:
        """Route a session's deliveries into the tracker."""
        member = session.member_id

        def on_deliver(sender: str, payload) -> None:
            tag = str(payload).split(".", 1)[0].rstrip(".")
            self.delivered(member, tag)

        session.on_deliver = on_deliver

    def multicaster(self, session, payload_chars: int = 100) -> Callable[[int], Future]:
        """``issue(i)`` for ``session``: multicast ``payload_chars`` characters
        tagged ``<member>:<i>``; the future resolves once every member has
        delivered them."""
        me = session.member_id

        def issue(i: int) -> Future:
            tag = f"{me}:{i}"
            everywhere = self.expect(tag)
            session.send(tag.ljust(payload_chars, "."))
            return everywhere

        return issue
