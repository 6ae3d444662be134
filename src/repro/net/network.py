"""The simulated network: message transmission, partitions, loss, stats.

Transmission of a message from node A to node B:

1. A's CPU pays the send cost (done in :meth:`Node.send`), then hands the
   message to :meth:`Network.transmit`.
2. The network drops it if the destination is unreachable (crash/partition),
   has no handler for the service (a closed port) or the link's loss
   process fires — silently, as in the paper's asynchronous system model.
3. Otherwise it arrives after serialisation + propagation delay as a job
   on B's CPU, which pays the receive cost before the handler runs.

Links preserve FIFO per (src, dst) pair, like a TCP connection: delivery
times are clamped to be non-decreasing per pair.
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from math import cos, log, pi, sin, sqrt
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.net import node as node_costs
from repro.net.latency import JitteredLatency
from repro.net.node import Node
from repro.net.topology import LinkSpec, Topology
from repro.obs.metrics import OnFirstUse
from repro.obs.tracer import UNSAMPLED
from repro.sim.core import SimulationError, Simulator

__all__ = ["Network", "NetworkStats"]

_TWOPI = 2.0 * pi  # random.TWOPI, for the in-line gauss draw


class _Pipe:
    """A directed site-pair link resource: the virtual time it is busy
    until.  Every route crossing the same site pair shares one pipe."""

    __slots__ = ("busy",)

    def __init__(self):
        self.busy = 0.0


class _Route:
    """What ``transmit`` needs for one ``(src, dst)`` pair, resolved once: a
    node's site and the topology are static per run."""

    __slots__ = ("node", "link", "pipe", "last_arrival", "label", "gauss")

    def __init__(self, node: Optional[Node], link: LinkSpec, pipe: _Pipe, label: str):
        self.node = node  # None while the destination is not attached
        self.link = link
        self.pipe = pipe
        self.last_arrival = 0.0  # FIFO per (src, dst): the latest arrival yet
        self.label = label  # the span's ``link`` attribute
        latency = link.latency
        #: a JitteredLatency link's (base, sigma, floor, ceil), drawn in line
        #: by ``transmit``; None for any other model, which ``sample``s
        self.gauss = (
            (latency.base, latency.base * latency.jitter, latency.floor, latency.ceil)
            if isinstance(latency, JitteredLatency)
            else None
        )


class NetworkStats:
    """Traffic counts for observation and tests.

    A view of the run's :class:`~repro.obs.MetricsRegistry`, which holds the
    only copy (``Network.transmit`` bumps the counters' ``value``), including
    **per-kind hop counts**: each hop is attributed to the protocol-message
    kind the sender threads down through ``Node.send`` / ``ORB.invoke``, so
    ``net.hops.<kind>`` totals reconcile exactly (±0) with the gc layer's
    per-kind send counters.
    """

    def __init__(self, metrics):
        self.sent = metrics.counter("net.sent")
        self.delivered = metrics.counter("net.delivered")
        self.dropped = metrics.counter("net.dropped")
        self.bytes = metrics.counter("net.bytes_sent")
        self.hops = metrics.counters("net.hops.")

    messages_sent = property(lambda self: self.sent.value)
    messages_delivered = property(lambda self: self.delivered.value)
    messages_dropped = property(lambda self: self.dropped.value)
    bytes_sent = property(lambda self: self.bytes.value)

    def snapshot(self) -> Dict[str, int]:
        return {
            "sent": self.sent.value,
            "delivered": self.delivered.value,
            "dropped": self.dropped.value,
            "bytes": self.bytes.value,
        }


class Network:
    """Connects nodes according to a :class:`Topology`."""

    def __init__(self, sim: Simulator, topology: Topology):
        self.sim = sim
        self.topology = topology
        self.nodes: Dict[str, Node] = {}
        self.stats = NetworkStats(sim.obs.metrics)
        self._tracer = sim.obs.tracer
        self._partition: Optional[List[Set[str]]] = None  # sets of node names
        self._routes: Dict[Tuple[str, str], _Route] = OnFirstUse(self._resolve)
        # shared link capacity: messages serialise onto the (directed)
        # site-pair pipe they cross — intra-site traffic shares the LAN
        # segment, inter-site traffic shares the Internet path.  The WAN
        # pipe's limited bandwidth is what makes a client's multicast to
        # all replicas unattractive over wide areas (§1, §5.1.3).
        self._pipes: Dict[Tuple[str, str], _Pipe] = OnFirstUse(lambda sites: _Pipe())
        self._rng = sim.rng("net.latency")
        self._loss_rng = sim.rng("net.loss")

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def attach(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"node {node.name!r} already attached")
        if not self.topology.has_site(node.site):
            raise KeyError(f"node {node.name!r} references unknown site {node.site!r}")
        self.nodes[node.name] = node
        node.network = self
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def new_node(self, name: str, site: str) -> Node:
        """Create a node at ``site`` and attach it."""
        return self.attach(Node(self.sim, name, site))

    def _resolve(self, pair: Tuple[str, str]) -> _Route:
        """The route of ``(src, dst)``.  An unattached destination keeps
        the message on the source's LAN segment, where it is dropped."""
        src, dst = pair
        src_site = self.nodes[src].site
        dst_node = self.nodes.get(dst)
        dst_site = dst_node.site if dst_node is not None else src_site
        link = self.topology.link(src_site, dst_site)
        pipe = self._pipes[src_site, dst_site]
        return _Route(dst_node, link, pipe, f"{src_site}->{dst_site}")

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def transmit(
        self,
        src: str,
        dst: str,
        service: str,
        payload: Any,
        size: int,
        kind: Optional[str] = None,
    ) -> None:
        """Deliver a message from ``src`` to ``dst`` (called post send-CPU).

        The message serialises onto the directed link resource it crosses —
        the shared LAN segment for intra-site traffic, the shared Internet
        pipe for inter-site traffic — queueing behind earlier traffic, then
        propagates.  On a 100 Mbit LAN the queue is all but invisible; on a
        ~2 Mbit WAN path it is the dominant cost of fanning a multicast out
        across sites.

        ``kind`` attributes this hop in the per-kind accounting (protocol
        message kinds from the gc layer; defaults to the service name).

        A message that arrives is one kernel entry due at its arrival time,
        which the event loop turns into the destination CPU's receive job in
        place, or drops if the node crashed in flight (see
        ``repro.sim.core.ScheduledEvent``).
        """
        tracer = self._tracer
        stats = self.stats
        stats.sent.value += 1
        stats.bytes.value += size
        stats.hops[kind or service].value += 1
        route = self._routes[src, dst]
        link = route.link

        # link capacity is consumed whether or not the message will arrive:
        # queue behind the pipe, then serialise onto it
        sim = self.sim
        now = sim.now
        pipe = route.pipe
        tx_end = pipe.busy if pipe.busy > now else now
        tx_end += size * 8.0 / link.bandwidth_bps
        pipe.busy = tx_end

        span = None
        if tracer.enabled and tracer.ctx is not UNSAMPLED:
            span = tracer.start_span(
                "net.hop",
                kind="transport",
                node=src,
                attrs={
                    "src": src,
                    "dst": dst,
                    "service": service,
                    "size": size,
                    "link": route.label,
                    **({"msg.kind": kind} if kind else {}),
                },
            )

        dst_node = route.node
        if dst_node is None or not dst_node.alive or (
            self._partition is not None and not self.reachable(src, dst)
        ):
            if dst_node is None:
                # resolved before ``dst`` was attached: resolve it again
                del self._routes[src, dst]
            stats.dropped.value += 1
            tracer.end_span(span, outcome="dropped", reason="unreachable")
            return
        handler = dst_node._handlers.get(service)
        if handler is None:
            stats.dropped.value += 1
            tracer.end_span(span, outcome="dropped", reason="closed port")
            return
        if link.loss and self._loss_rng.random() < link.loss:
            stats.dropped.value += 1
            tracer.end_span(span, outcome="lost")
            return

        gauss = route.gauss
        if gauss is None:
            delay = link.latency.sample(self._rng)
        else:
            # random.Random.gauss in line, on its gauss_next pair cache, so
            # the stream and every draw are exactly gauss(base, sigma)'s
            base, sigma, floor, ceil = gauss
            rng = self._rng
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                random = rng.random
                x2pi = random() * _TWOPI
                g2rad = sqrt(-2.0 * log(1.0 - random()))
                z = cos(x2pi) * g2rad
                rng.gauss_next = sin(x2pi) * g2rad
            delay = base + z * sigma
            # truncated: a long Gaussian tail yields no absurd delay
            if delay < floor:
                delay = floor
            elif delay > ceil:
                delay = ceil
        arrival = tx_end + delay
        # FIFO per (src, dst): arrivals never reorder on one link.
        if arrival < route.last_arrival:
            arrival = route.last_arrival
        if arrival < now:
            raise SimulationError(f"cannot schedule at {arrival} before now={now}")
        route.last_arrival = arrival
        stats.delivered.value += 1
        if span is not None:
            # the hop's extent is known now: close it at the arrival time so
            # the span covers queueing + serialisation + propagation
            span.end = arrival
            span.attrs["outcome"] = "delivered"
            ctx = span
        else:
            ctx = tracer.ctx
        # the arrival, as Simulator.schedule_at would push it
        sim._seq = seq = sim._seq + 1
        entry = [
            arrival,
            seq,
            None,
            (node_costs.RECV_OVERHEAD + size * node_costs.PER_BYTE, handler, src, payload, size),
            ctx,
            dst_node.cpu,
        ]
        if sim._vacant:
            sim._vacant = False
            heapreplace(sim._queue, entry)
        else:
            heappush(sim._queue, entry)

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def partition(self, *groups: Iterable[str]) -> None:
        """Split the network: messages flow only within each group.

        Groups are iterables of node names; unlisted nodes form an implicit
        final group together.
        """
        explicit: List[Set[str]] = [set(g) for g in groups]
        listed = set().union(*explicit) if explicit else set()
        rest = set(self.nodes) - listed
        if rest:
            explicit.append(rest)
        self._partition = explicit

    def partition_sites(self, *site_groups: Iterable[str]) -> None:
        """Partition along site boundaries (e.g. isolate Pisa)."""
        groups = []
        for sites in site_groups:
            sites = set(sites)
            groups.append({n.name for n in self.nodes.values() if n.site in sites})
        self.partition(*groups)

    def heal(self) -> None:
        """Remove any partition."""
        self._partition = None

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a message can currently flow from ``src`` to ``dst``."""
        if self._partition is None:
            return True
        for group in self._partition:
            if src in group:
                return dst in group
        return False

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash(self, name: str) -> None:
        self.nodes[name].crash()

    def recover(self, name: str) -> None:
        self.nodes[name].recover()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network nodes={len(self.nodes)} partitioned={self._partition is not None}>"
