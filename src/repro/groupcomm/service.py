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

from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import GroupError
from repro.groupcomm.channel import ChannelManager
from repro.groupcomm.config import GroupConfig
from repro.groupcomm.lamport import LamportClock
from repro.groupcomm.membership import MembershipEngine
from repro.groupcomm.merger import SharedClockMerger, TicketMerger
from repro.groupcomm.messages import (
    ChanData,
    DataMsg,
    FlushOk,
    FlushReq,
    JoinReq,
    LeaveReq,
    SuspectMsg,
    TicketBatchMsg,
    TicketMsg,
    ViewInstall,
)
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


def _membership(handler: Callable) -> Tuple[str, Callable]:
    return "membership", lambda session, peer, msg: handler(session.membership, msg)


#: The one table of protocol messages that travel inside channel frames
#: (every frame carries one): class -> (traffic kind, ``consume(session,
#: peer, message)``).  A ``DataMsg``'s kind is its own ``kind`` field; the
#: channel layer's own acks, nacks and resets travel unframed, count as
#: "control" traffic and never reach a session.
_PROTOCOL: Dict[type, Tuple[Optional[str], Callable]] = {
    DataMsg: (None, GroupSession.receive),
    TicketMsg: ("ticket", GroupSession.receive),
    TicketBatchMsg: ("ticket", GroupSession.receive),
    JoinReq: _membership(MembershipEngine.on_join_req),
    LeaveReq: _membership(MembershipEngine.on_leave_req),
    SuspectMsg: _membership(MembershipEngine.on_suspect_msg),
    FlushReq: _membership(MembershipEngine.on_flush_req),
    FlushOk: _membership(MembershipEngine.on_flush_ok),
    ViewInstall: _membership(MembershipEngine.on_view_install),
}


class _NsoServant:
    """ORB-facing receiver for channel traffic from peer NSOs."""

    OP_COSTS = {"receive": PROTOCOL_COST}

    def __init__(self, service: "GroupCommService"):
        self._service = service

    def receive(self, sender: str, message: Any) -> None:
        self._service.channels.on_message(sender, message)


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
        #: peer NSO IORs are pure values; build each once, not per send
        self._peer_iors = OnFirstUse(lambda peer: IOR(peer, "RootPOA", NSO_OBJECT_ID))
        orb.register(_NsoServant(self), object_id=NSO_OBJECT_ID)
        self.channels = ChannelManager(
            self.sim, self.name, self._transport, self._route
        )

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
        session.membership.request_join(contact)
        return session

    def session(self, group: str) -> Optional[GroupSession]:
        return self.sessions.get(group)

    def drop_session(self, group: str) -> None:
        self.sessions.pop(group, None)

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
    def _transport(self, peer: str, message: Any) -> None:
        if type(message) is not ChanData:
            kind = "control"  # the channel's own acks, nacks and resets
        elif self.channels.retransmitting:
            kind = "retransmit"
        else:
            inner = message.inner
            kind = _PROTOCOL[type(inner)][0] or inner.kind
        if self.node.alive:
            # per-kind send counter, mirrored so it reconciles ±0 with the
            # net layer's per-kind hop counts (a crashed node's sends never
            # reach the wire, so they are not counted here either)
            self._sent[kind].value += 1
        self.orb.invoke(
            self._peer_iors[peer], "receive", (self.name, message), oneway=True, net_kind=kind
        )

    def send_protocol(self, peer: str, message: Any) -> None:
        """Send a membership-protocol message (reliably, FIFO with data)."""
        if peer == self.name:
            self._route(peer, message)
        else:
            self.channels.send(peer, message)

    # ------------------------------------------------------------------
    # inbound routing
    # ------------------------------------------------------------------
    def _route(self, peer: str, message: Any) -> None:
        session = self.sessions.get(getattr(message, "group", None))
        if session is None:
            return
        # any protocol traffic proves the peer alive (flush rounds can be
        # long; they must not starve the failure detector)
        if peer != self.name and session.view is not None and peer in session.view.members:
            session.detector.heard_from(peer)
        row = _PROTOCOL.get(type(message))
        if row is not None:
            row[1](session, peer, message)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GroupCommService {self.name} groups={sorted(self.sessions)}>"
