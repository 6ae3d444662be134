"""Simulated hosts with a serial CPU.

The per-node CPU model is central to reproducing the paper's results: server
saturation with a handful of LAN clients, and the sequencer CPU bottleneck in
peer groups, are both queueing effects at a host's CPU.  We model each node
as a single non-preemptive FIFO processor: every piece of protocol work
(marshalling a request, processing a delivered group message, executing a
servant) is submitted with a cost and runs serially.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.core import Simulator

__all__ = ["Node", "SEND_OVERHEAD", "RECV_OVERHEAD", "PER_BYTE"]

# Per-message CPU costs (seconds) of every host, roughly a 2000-era
# Pentium/Linux machine.  Higher layers add their own explicit costs (ORB
# dispatch, NewTop protocol processing) on top.  Read at each send and
# delivery, so a test may patch them.
#: syscalls + ORB transport work to send one message
SEND_OVERHEAD = 60e-6
#: the same to receive one
RECV_OVERHEAD = 60e-6
#: marshalling, per byte, on either side
PER_BYTE = 20e-9


class _Life:
    """One incarnation's liveness: every CPU job it submits carries it, and
    a crash clears it, so no job of that incarnation runs afterwards."""

    __slots__ = ("alive",)

    def __init__(self):
        self.alive = True


class Node:
    """A host attached to the simulated network.

    Services (the ORB, diagnostics) register message handlers under a service
    name; inbound messages are dispatched to the handler after the receive
    CPU cost has been paid.
    """

    def __init__(self, sim: Simulator, name: str, site: str):
        self.sim = sim
        self.name = name
        self.site = site
        self.alive = True
        self.network = None  # set by Network.attach()
        self._handlers: Dict[str, Callable[[str, Any, int], None]] = {}
        self._busy_until = 0.0
        self._busy_accum = 0.0
        # pre-resolved bound methods: execute() runs once per CPU submission
        self._record_queue_delay = sim.obs.metrics.histogram("node.cpu_queue_delay").record
        self._schedule_on = sim.schedule_on
        self._life = _Life()

    # ------------------------------------------------------------------
    # service registration and message I/O
    # ------------------------------------------------------------------
    def register(self, service: str, handler: Callable[[str, Any, int], None]) -> None:
        """Register ``handler(src_node_name, payload, size)`` for a service."""
        if service in self._handlers:
            raise ValueError(f"service {service!r} already registered on {self.name}")
        self._handlers[service] = handler

    def send(
        self,
        dst: str,
        service: str,
        payload: Any,
        size: int,
        kind: Optional[str] = None,
    ) -> None:
        """Send a message to ``dst``; pays the send CPU cost first.

        The message leaves the node once the CPU has finished marshalling it,
        so a burst of sends from one node is serialised — this is the
        paper's "multicast implemented by invoking members in turn".

        ``kind`` (optional) attributes the resulting network hop to a
        protocol-message kind for per-kind traffic accounting.

        A crashed node sends nothing (crash-stop): the call is a silent
        no-op so that protocol timers firing after a crash cannot blow up.
        """
        if not self.alive:
            return
        if self.network is None:
            raise RuntimeError(f"node {self.name} is not attached to a network")
        cost = SEND_OVERHEAD + size * PER_BYTE
        self.execute(
            cost, self.network.transmit, self.name, dst, service, payload, size, kind
        )

    def deliver(self, src: str, service: str, payload: Any, size: int) -> None:
        """Called by the network when a message arrives (pre-CPU)."""
        if not self.alive:
            return
        handler = self._handlers.get(service)
        if handler is None:
            return  # unknown service: silently dropped, like a closed port
        self.execute(RECV_OVERHEAD + size * PER_BYTE, handler, src, payload, size)

    # ------------------------------------------------------------------
    # CPU model
    # ------------------------------------------------------------------
    def execute(self, cost: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``cost`` seconds of CPU, FIFO-queued."""
        if not self.alive:
            return
        now = self.sim.now
        busy = self._busy_until
        start = busy if busy > now else now
        self._record_queue_delay(start - now)
        until = start + cost
        self._busy_until = until
        self._busy_accum += cost
        self._schedule_on(self._life, until, fn, args)

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds this CPU spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_accum / elapsed)

    @property
    def busy_time(self) -> float:
        return self._busy_accum

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop: drop all queued work and future messages."""
        self.alive = False
        self._life.alive = False

    def recover(self) -> None:
        """Restart the node (state above this layer must be rebuilt).  The
        new incarnation runs none of the work queued before the crash."""
        self.alive = True
        self._life = _Life()
        self._busy_until = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "crashed"
        return f"<Node {self.name}@{self.site} {state}>"
