"""Delivery-order protocols: symmetric, asymmetric, causal, FIFO.

The two total-order protocols are the ones the paper evaluates against each
other (§2, §5):

- **Symmetric** — deterministic ordering by (Lamport timestamp, sender id).
  A data message is deliverable once a message (data or NULL) with an equal
  or greater timestamp has been received from every other member, so ordering
  work is spread across the group, at the price of time-silence NULL traffic
  from otherwise-idle members.

- **Asymmetric** — a sequencer (the first member of the view, overridable
  via the config's sequencer hint) assigns globally increasing tickets.
  The sequencer's own multicasts carry their ticket embedded — the
  self-sequencing fast path that makes the request-manager-is-sequencer
  configuration of §4.2 cheap.  Other members' messages pay the ordering
  redirection: data to the group, ticket back from the sequencer.

Both rely on the channel layer's per-pair FIFO: timestamps from one sender
arrive monotonically, and tickets from one sequencer arrive in increasing
global order (which is what makes cross-group order consistent for members
of several groups sharing a sequencer).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.groupcomm.messages import DataMsg
from repro.groupcomm.vectorclock import VectorClock

__all__ = [
    "OrderingStrategy",
    "SymmetricOrder",
    "AsymmetricOrder",
    "CausalOrder",
    "FifoOrder",
    "make_ordering",
]

_INF = float("inf")


class OrderingStrategy:
    """Per-session ordering engine.

    The session feeds it FIFO-ordered events (own sends, remote data,
    tickets); the strategy decides when messages clear group-level ordering
    and releases them through ``session._deliver_app(msg)`` — directly, or
    through the service's cross-group merger for its protocol, which the
    strategy alone talks to (symmetric: the shared-clock merger;
    asymmetric: the ticket merger and the ticket batcher).
    """

    needs_nulls = False

    def __init__(self, session):
        self.session = session

    # -- merger registration ----------------------------------------------
    def attach(self) -> None:
        """The session entered a view: join the cross-group merge."""

    def detach(self) -> None:
        """The session is leaving its view (or closing): withdraw whatever
        it still has queued with the service's shared machinery."""

    # -- event intake ---------------------------------------------------
    def stamp(self) -> Tuple[Optional[int], Optional[Dict[str, int]]]:
        """(embedded ticket, vector stamp) for the next outgoing data message."""
        return None, None

    def on_local_send(self, msg: DataMsg) -> None:
        raise NotImplementedError

    def on_data(self, msg: DataMsg) -> None:
        raise NotImplementedError

    def on_tickets(self, tickets: List[Tuple[int, str, int]]) -> None:
        """A run of ``(ticket, target_sender, target_gseq)`` assignments
        arrived from the sequencer (asymmetric ordering only)."""

    # -- state queries ----------------------------------------------------
    def pending_count(self) -> int:
        raise NotImplementedError

    # -- flush support ----------------------------------------------------
    def flush_tickets(self) -> List[Tuple[int, str, int]]:
        """Ticket assignments this member knows of, for FlushOk."""
        return []

    def finalize(
        self, union_msgs: List[DataMsg], union_tickets: List[Tuple[int, str, int]]
    ) -> List[DataMsg]:
        """Messages still to deliver before the view change, in final order.

        ``union_msgs`` is the coordinator's closed set (deduplicated union of
        all members' unstable buffers); the strategy must combine it with its
        own pending state and return exactly the messages *this* member has
        not delivered, ordered so that every member extends the same global
        sequence.
        """
        raise NotImplementedError

    def reset(self, members: List[str]) -> None:
        """Adopt the new view's membership; ordering state starts fresh."""
        raise NotImplementedError


class SymmetricOrder(OrderingStrategy):
    """Total order by (Lamport timestamp, sender id)."""

    needs_nulls = True

    def __init__(self, session):
        super().__init__(session)
        #: releases cleared messages across this NSO's symmetric sessions
        #: in global (timestamp, sender) order
        self._merger = session.service.clock_merger
        self.latest_ts: Dict[str, int] = {}
        self._pending: List[Tuple[int, str, DataMsg]] = []  # heap
        self._last_delivered_key: Tuple[Any, str] = (0, "")
        self.reset(list(session.view.members) if session.view else [])

    def attach(self) -> None:
        self._merger.register(self.session)

    def detach(self) -> None:
        self._merger.unregister(self.session)

    # -- intake ---------------------------------------------------------
    def on_local_send(self, msg: DataMsg) -> None:
        self.latest_ts[msg.sender] = msg.ts
        if not msg.is_null:
            heapq.heappush(self._pending, (msg.ts, msg.sender, msg))
        self._drain()

    def on_data(self, msg: DataMsg) -> None:
        if msg.ts > self.latest_ts[msg.sender]:
            self.latest_ts[msg.sender] = msg.ts
        if not msg.is_null:
            heapq.heappush(self._pending, (msg.ts, msg.sender, msg))
        self._drain()

    # -- delivery -------------------------------------------------------
    def _floor(self) -> float:
        """The minimum latest stamp over the other members (infinity when
        alone): no member but a message's own sender can still send below
        it."""
        me = self.session.member_id
        latest = self.latest_ts
        floor = _INF
        for member in self.session.view.members:
            if member != me:
                ts = latest[member]
                if ts < floor:
                    floor = ts
        return floor

    def _drain(self) -> None:
        """Hand every message that cleared group-level ordering to the
        merger, then let the merger release what no other session gates.

        Classical Lamport-order rule: a message is deliverable once a
        timestamp ≥ its own has been received from every other member (it
        is at or below the floor), and a strictly *later* one from its
        sender when that is a peer (the sender's own stamp does not count —
        its next message, typically a NULL, confirms no earlier send is in
        flight).  This is the timestamp-exchange traffic the paper
        attributes to the symmetric protocol (§2, §5.1.3)."""
        pending = self._pending
        if pending:
            session = self.session
            floor = self._floor()
            me = session.member_id
            latest = self.latest_ts
            push = self._merger.push
            while pending:
                ts, sender, msg = pending[0]
                if ts > floor or (sender != me and latest[sender] <= ts):
                    break
                heapq.heappop(pending)
                key = self._last_delivered_key = (ts, sender)
                push(session, msg, key)
        self._merger.drain()

    # -- merger support ---------------------------------------------------
    def frontier_key(self) -> Tuple[Any, str]:
        """Lower bound on the key of any message this session may yet clear."""
        key = (self._floor() + 1, "")
        if self._pending:
            ts, sender, _msg = self._pending[0]
            return min(key, (ts, sender))
        return key

    # -- queries ----------------------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending)

    # -- flush ------------------------------------------------------------
    def finalize(self, union_msgs, union_tickets) -> List[DataMsg]:
        seen = {}
        for _ts, _sender, msg in self._pending:
            seen[msg.msg_id] = msg
        for msg in union_msgs:
            if not msg.is_null:
                seen.setdefault(msg.msg_id, msg)
        frontier = tuple(self._last_delivered_key)
        remaining = [
            msg for msg in seen.values() if (msg.ts, msg.sender) > frontier
        ]
        remaining.sort(key=lambda m: (m.ts, m.sender, m.gseq))
        return remaining

    def reset(self, members: List[str]) -> None:
        self.latest_ts = {m: 0 for m in members}
        self._pending = []
        self._last_delivered_key = (0, "")


class AsymmetricOrder(OrderingStrategy):
    """Sequencer-based total order with globally increasing tickets."""

    needs_nulls = False

    def __init__(self, session):
        super().__init__(session)
        service = session.service
        #: releases ticketed messages across this NSO's asymmetric sessions,
        #: per sequencer, in ticket-arrival order
        self._merger = service.ticket_merger
        #: coalesces the ticket announcements this member makes as sequencer
        self._batcher = service.ticket_batcher
        self._next_ticket = service.next_ticket
        #: data messages awaiting delivery, by (sender, gseq)
        self.arrived: Dict[Tuple[str, int], DataMsg] = {}
        #: tickets already known, by (sender, gseq) -> ticket value
        self.known_tickets: Dict[Tuple[str, int], int] = {}
        self.last_delivered_ticket = -1

    def detach(self) -> None:
        self._merger.purge(self.session)
        self._batcher.purge(self.session)

    # -- intake ---------------------------------------------------------
    def _learn_ticket(self, ticket: int, key: Tuple[str, int]) -> None:
        """The single insertion point for a ticket assignment: record it and
        enqueue it with the cross-group merger (which delivers tickets from
        one sequencer in arrival order)."""
        self.known_tickets[key] = ticket
        session = self.session
        self._merger.enqueue(session.sequencer, session, ticket, key)

    def stamp(self) -> Tuple[Optional[int], Optional[Dict[str, int]]]:
        session = self.session
        if session.member_id != session.sequencer:
            return None, None  # the sequencer's ticket follows our data
        # self-sequenced: the ticket rides embedded in the data message.
        # Tickets batched for earlier remote messages must reach the channels
        # first, or peers would see this (larger) embedded ticket before them
        # and the cross-group arrival order would no longer be increasing
        self._batcher.flush()
        return self._next_ticket(), None

    def on_local_send(self, msg: DataMsg) -> None:
        if not msg.is_null:
            key = (msg.sender, msg.gseq)
            self.arrived[key] = msg
            if msg.ticket is not None:
                self._learn_ticket(msg.ticket, key)
        self._merger.drain()

    def on_data(self, msg: DataMsg) -> None:
        if not msg.is_null:
            key = (msg.sender, msg.gseq)
            self.arrived[key] = msg
            if msg.ticket is not None:
                self._learn_ticket(msg.ticket, key)
            elif self.session.member_id == self.session.sequencer:
                # we are the sequencer: assign and announce a ticket (via the
                # batcher, which may coalesce it with neighbouring ones)
                ticket = self._next_ticket()
                self._learn_ticket(ticket, key)
                self._batcher.announce(self.session, ticket, key)
        self._merger.drain()

    def on_tickets(self, tickets: List[Tuple[int, str, int]]) -> None:
        for ticket, target_sender, target_gseq in tickets:
            self._learn_ticket(ticket, (target_sender, target_gseq))
        self._merger.drain()

    # -- delivery (driven by the ticket merger) ---------------------------
    def take_if_arrived(self, key: Tuple[str, int]) -> Optional[DataMsg]:
        msg = self.arrived.pop(key, None)
        if msg is not None:
            self.last_delivered_ticket = self.known_tickets.get(
                key, self.last_delivered_ticket
            )
        return msg

    # -- queries ----------------------------------------------------------
    def pending_count(self) -> int:
        return len(self.arrived)

    # -- flush ------------------------------------------------------------
    def flush_tickets(self) -> List[Tuple[int, str, int]]:
        return [
            (ticket, sender, gseq)
            for (sender, gseq), ticket in self.known_tickets.items()
        ]

    def finalize(self, union_msgs, union_tickets) -> List[DataMsg]:
        messages: Dict[Tuple[str, int], DataMsg] = {}
        for msg in union_msgs:
            if not msg.is_null:
                messages.setdefault((msg.sender, msg.gseq), msg)
        for key, msg in self.arrived.items():
            messages.setdefault(key, msg)
        tickets = dict(self.known_tickets)
        for value, sender, gseq in union_tickets:
            tickets.setdefault((sender, gseq), value)
        for key, msg in messages.items():
            if msg.ticket is not None:
                tickets.setdefault(key, msg.ticket)

        ticketed = sorted(
            (tickets[key], key) for key in messages if key in tickets
        )
        unticketed = sorted(
            (msg.ts, msg.sender, msg.gseq, key)
            for key, msg in messages.items()
            if key not in tickets
        )
        ordered: List[DataMsg] = []
        for value, key in ticketed:
            if value > self.last_delivered_ticket:
                ordered.append(messages[key])
        for _ts, _sender, _gseq, key in unticketed:
            ordered.append(messages[key])
        return ordered

    def reset(self, members: List[str]) -> None:
        self.arrived = {}
        self.known_tickets = {}
        self.last_delivered_ticket = -1


class CausalOrder(OrderingStrategy):
    """Causal order via per-group vector clocks (CBCAST-style)."""

    needs_nulls = False

    def __init__(self, session):
        super().__init__(session)
        self.delivered_vc = VectorClock()
        self._buffer: List[DataMsg] = []

    def stamp(self) -> Tuple[Optional[int], Optional[Dict[str, int]]]:
        """Vector stamp for an outgoing message (send counted first)."""
        self.delivered_vc.increment(self.session.member_id)
        return None, dict(self.delivered_vc.counts)

    def on_local_send(self, msg: DataMsg) -> None:
        if not msg.is_null:
            # own messages are causally ready by construction; the send was
            # already counted by stamp()
            self.session._deliver_app(msg)

    def on_data(self, msg: DataMsg) -> None:
        if msg.is_null:
            return
        self._buffer.append(msg)
        self._drain()

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for msg in list(self._buffer):
                vector = VectorClock(msg.vector or {})
                if vector.causally_ready(msg.sender, self.delivered_vc):
                    self._buffer.remove(msg)
                    self.delivered_vc.increment(msg.sender)
                    self.session._deliver_app(msg)
                    progressed = True

    def pending_count(self) -> int:
        return len(self._buffer)

    def finalize(self, union_msgs, union_tickets) -> List[DataMsg]:
        seen: Dict[Tuple[int, str, int], DataMsg] = {}
        for msg in self._buffer:
            seen.setdefault(msg.msg_id, msg)
        for msg in union_msgs:
            if not msg.is_null:
                seen.setdefault(msg.msg_id, msg)
        remaining = [
            msg
            for msg in seen.values()
            if VectorClock(msg.vector or {}).get(msg.sender)
            > self.delivered_vc.get(msg.sender)
        ]
        # Lamport timestamps respect causality, so timestamp order is a safe
        # deterministic closing order.
        remaining.sort(key=lambda m: (m.ts, m.sender, m.gseq))
        return remaining

    def reset(self, members: List[str]) -> None:
        self.delivered_vc = VectorClock()
        self._buffer = []


class FifoOrder(OrderingStrategy):
    """Per-sender FIFO only; the channel layer already provides it."""

    needs_nulls = False

    def __init__(self, session):
        super().__init__(session)
        self.delivered_gseq: Dict[str, int] = {}

    def on_local_send(self, msg: DataMsg) -> None:
        if not msg.is_null:
            self.delivered_gseq[msg.sender] = msg.gseq
            self.session._deliver_app(msg)

    def on_data(self, msg: DataMsg) -> None:
        if not msg.is_null:
            self.delivered_gseq[msg.sender] = msg.gseq
            self.session._deliver_app(msg)

    def pending_count(self) -> int:
        return 0

    def finalize(self, union_msgs, union_tickets) -> List[DataMsg]:
        remaining = [
            msg
            for msg in union_msgs
            if not msg.is_null
            and msg.gseq > self.delivered_gseq.get(msg.sender, 0)
        ]
        remaining.sort(key=lambda m: (m.sender, m.gseq))
        return remaining

    def reset(self, members: List[str]) -> None:
        self.delivered_gseq = {}


_STRATEGIES = {
    "symmetric": SymmetricOrder,
    "asymmetric": AsymmetricOrder,
    "causal": CausalOrder,
    "fifo": FifoOrder,
}


def make_ordering(name: str, session) -> OrderingStrategy:
    """Instantiate the ordering strategy named by a :class:`GroupConfig`."""
    cls = _STRATEGIES.get(name)
    if cls is None:
        raise ValueError(f"unknown ordering protocol {name!r}")
    return cls(session)
