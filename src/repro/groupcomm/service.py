"""The NewTop group communication service (the NSO's lower half).

One :class:`GroupCommService` per node.  It registers itself as a CORBA
servant (object id ``"NSO"``) so peer services can reach it with oneway ORB
invocations — multicasts are implemented, as in the paper (§2.2), by
invoking each member's NSO in turn, the sender's CPU serialising the sends.

The service owns the resources shared by all of its client's groups:

- the Lamport clock (one per NSO, shared across groups — §2.1);
- the global ticket counter (when this member sequences asymmetric groups);
- the reliable FIFO channels to peer NSOs;
- the cross-group delivery mergers.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, Optional

from repro.errors import GroupError
from repro.groupcomm.channel import ChannelManager
from repro.groupcomm.config import GroupConfig
from repro.groupcomm.lamport import LamportClock
from repro.groupcomm.membership import MESSAGES, Join
from repro.groupcomm.merger import SharedClockMerger, TicketMerger
from repro.groupcomm.messages import DataMsg, TicketBatchMsg, TicketMsg
from repro.groupcomm.session import GroupSession
from repro.groupcomm.ticketbatch import TicketBatcher
from repro.groupcomm.views import GroupView
from repro.obs.metrics import OnFirstUse
from repro.orb.ior import IOR
from repro.orb.orb import ORB

__all__ = ["GroupCommService", "PROTOCOL_COST", "NSO_OBJECT_ID"]

#: CPU cost of NewTop protocol processing per received channel message
#: (queueing, ordering bookkeeping — the overhead behind the paper's
#: observed single-client latency, 2.5x the plain ORB call's, fig. 9).
PROTOCOL_COST = 200e-6

NSO_OBJECT_ID = "NSO"


#: The one table of protocol messages that travel inside channel frames
#: (every frame carries one, and each names its ``group``): class ->
#: ``consume(session, peer, message)``.  Each sender names its frames'
#: traffic kind: a ``DataMsg`` its own ``kind`` field, tickets "ticket",
#: membership messages "membership"; the channel layer's own acks, nacks and
#: resets travel unframed as "control" and never reach a session.
_PROTOCOL: Dict[type, Callable] = {
    DataMsg: GroupSession.receive,
    TicketMsg: GroupSession.receive,
    TicketBatchMsg: GroupSession.receive,
    **dict.fromkeys(MESSAGES, GroupSession.membership_step),
}


class _NsoServant:
    """ORB-facing receiver for channel traffic from peer NSOs: its one
    operation, ``receive(sender, message)``, is the channel manager's
    ``on_message`` itself, so a frame reaches the channel in one call."""

    OP_COSTS = {"receive": PROTOCOL_COST}

    def __init__(self, channels: ChannelManager):
        self.receive = channels.on_message


class GroupCommService:
    """Group membership + reliable/ordered multicast for one node."""

    def __init__(self, orb: ORB):
        self.orb = orb
        self.node = orb.node
        self.sim = orb.sim
        self.name = orb.node.name
        self.clock = LamportClock()
        self.clock_merger = SharedClockMerger()
        self.ticket_merger = TicketMerger()
        self.ticket_batcher = TicketBatcher(self)
        self.sessions: Dict[str, GroupSession] = {}
        self._ticket_counter = 0
        self._era_counter = 0
        metrics = orb.sim.obs.metrics
        #: ``gc.sent.<kind>`` counters: outbound protocol messages by kind
        #: (data / null / ticket / membership / channel control / retransmit)
        #: — the basis of the traffic benches.  Retransmitted frames count
        #: under ``retransmit``, not under their payload's kind: a repair is
        #: protocol overhead, and counting it as ``data`` would inflate the
        #: per-request data traffic the paper's tables report.
        self._sent = metrics.counters("gc.sent.")
        #: deliveries of the sessions this service has dropped
        self._retired_delivered = 0
        # read from the sessions at snapshot, summed over every node's service
        metrics.pull_counter(
            "gc.delivered", lambda: self._retired_delivered + self._total("stats.delivered")
        )
        metrics.pull_gauge("gc.flow.in_flight", lambda: self._total("flow.in_flight"))
        metrics.pull_gauge("gc.flow.queued", lambda: self._total("flow.queued"))
        #: peer NSO IORs are pure values; build each once, not per send
        self._peer_iors = OnFirstUse(lambda peer: IOR(peer, "RootPOA", NSO_OBJECT_ID))
        self.channels = ChannelManager(
            self.sim, self.name, self._transport, self._route
        )
        orb.register(_NsoServant(self.channels), object_id=NSO_OBJECT_ID)

    # ------------------------------------------------------------------
    # group lifecycle
    # ------------------------------------------------------------------
    def create_group(
        self, group: str, config: Optional[GroupConfig] = None
    ) -> GroupSession:
        """Create ``group`` with this member as its sole initial member."""
        if group in self.sessions:
            raise GroupError(f"{self.name} already participates in {group!r}")
        # a fresh incarnation id: views of a re-created group must never
        # alias the identically-numbered views of a dead incarnation
        self._era_counter += 1
        view = GroupView(group, 1, [self.name], era=f"{self.name}#{self._era_counter}")
        session = GroupSession(self, group, config or GroupConfig(), initial_view=view)
        self.sessions[group] = session
        return session

    def join_group(self, group: str, contact: str) -> GroupSession:
        """Join ``group`` via ``contact`` (any current member's node name).

        Returns immediately; await ``session.joined`` for the first view.
        """
        if group in self.sessions:
            raise GroupError(f"{self.name} already participates in {group!r}")
        if contact == self.name:
            raise GroupError("cannot join via self; name another member")
        session = GroupSession(self, group, GroupConfig(), initial_view=None)
        self.sessions[group] = session
        session.membership_step(self.name, Join(contact))
        return session

    def session(self, group: str) -> Optional[GroupSession]:
        return self.sessions.get(group)

    def drop_session(self, group: str) -> None:
        """Forget ``group``'s session, keeping its deliveries in the count."""
        session = self.sessions.pop(group, None)
        if session is not None:
            self._retired_delivered += session.stats.delivered

    def _total(self, field: str) -> int:
        """The dotted attribute ``field`` summed over this node's sessions."""
        return sum(map(attrgetter(field), self.sessions.values()))

    # ------------------------------------------------------------------
    # shared resources
    # ------------------------------------------------------------------
    def next_ticket(self) -> int:
        """Globally increasing ordering ticket (shared across groups)."""
        self._ticket_counter += 1
        return self._ticket_counter

    # ------------------------------------------------------------------
    # transport (channel layer <-> ORB)
    # ------------------------------------------------------------------
    def _transport(self, peer: str, message: Any, kind: str) -> bool:
        alive = self.node.alive
        if alive:
            # per-kind send counter, mirrored so it reconciles ±0 with the
            # net layer's per-kind hop counts (a crashed node's sends never
            # reach the wire, so they are not counted here either)
            self._sent[kind].value += 1
        self.orb.invoke(
            self._peer_iors[peer], "receive", (self.name, message), oneway=True, net_kind=kind
        )
        return alive

    # ------------------------------------------------------------------
    # inbound routing
    # ------------------------------------------------------------------
    def _route(self, peer: str, message: Any) -> None:
        session = self.sessions.get(message.group)
        if session is None:
            return
        # any protocol traffic proves the peer alive (flush rounds can be
        # long; they must not starve the failure detector)
        if peer != self.name and session.view is not None and peer in session.view.members:
            session.detector.last_recv[peer] = self.sim.now
        _PROTOCOL[type(message)](session, peer, message)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GroupCommService {self.name} groups={sorted(self.sessions)}>"
