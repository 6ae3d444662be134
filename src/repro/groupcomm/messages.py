"""Wire messages of the NewTop group communication protocols.

Three message families share the NSO-to-NSO channels:

- channel layer: ``ChanData`` / ``ChanAck`` / ``ChanNack`` (reliable FIFO);
- ordering layer: ``DataMsg`` (application data and NULL time-silence
  messages) and ``TicketMsg`` (asymmetric ordering tickets);
- membership layer: ``JoinReq`` / ``LeaveReq`` / ``SuspectMsg`` /
  ``FlushReq`` / ``FlushOk`` / ``ViewInstall``.

All are marshallable structs, sized by ``wire_size``.  They cross node
boundaries by reference (see :mod:`repro.orb.orb`): a message belongs to
the wire once sent — neither the sender nor any receiver mutates it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.groupcomm.config import GroupConfig
from repro.groupcomm.views import GroupView
from repro.orb.marshal import corba_struct

__all__ = [
    "DataMsg",
    "TicketMsg",
    "TicketBatchMsg",
    "JoinReq",
    "LeaveReq",
    "SuspectMsg",
    "FlushReq",
    "FlushOk",
    "ViewInstall",
    "ChanData",
    "ChanAck",
    "ChanNack",
    "ChanReset",
    "KIND_DATA",
    "KIND_NULL",
]

KIND_DATA = "data"
KIND_NULL = "null"


@corba_struct
class DataMsg:
    """An application multicast (kind=data) or time-silence NULL (kind=null).

    - ``gseq``: per-sender, per-view sequence (0 for NULLs); identifies the
      message for stability tracking and flush recovery.
    - ``ts``: Lamport timestamp from the sender's shared NSO clock.
    - ``ticket``: embedded ordering ticket when the sender is itself the
      sequencer (the self-sequencing fast path of §4.2).
    - ``vector``: vector-clock stamp for causal-order groups, else None.
    - ``acks``: piggybacked stability info: sender's max contiguous gseq
      received per member.
    - ``hb_period``: the sender's committed heartbeat interval (seconds);
      receivers scale their suspicion deadline to it so adaptive NULL
      suppression never causes false suspicion (0 = not advertised).
    - ``era``: the group incarnation id of the sender's view
      (:attr:`~repro.groupcomm.views.GroupView.era`).  Channels outlive
      group sessions across a member restart, so a frame from a dead
      incarnation can surface in a re-created group whose view numbering
      restarted — the era lets receivers drop it instead of aliasing it
      into the identically-numbered new view.
    - ``pushback``: the sender's advertised send-path pressure in [0, 1]
      (ordering backlog, unstable window, flow queue — whichever is
      fullest).  Piggybacked on existing reverse traffic exactly like
      ``acks``, so overload propagates upstream with zero extra messages;
      admission control reads the group-wide max (0.0 = no pressure, also
      the value old senders implicitly advertise).
    """

    __slots__ = (
        "group", "sender", "view_id", "gseq", "ts",
        "kind", "payload", "ticket", "vector", "acks",
        "hb_period", "era", "pushback", "msg_id", "is_null", "_wire_size", "span",
    )
    #: wire fields only — ``msg_id``, ``(view_id, sender, gseq)``, and
    #: ``is_null`` are derived from the fields at construction,
    #: ``_wire_size`` is what ``marshal.wire_size`` found at the first send (a
    #: multicast sizes its message once, not once per member): never
    #: marshalled, and sound because no field changes after that send; and
    #: ``span`` is the sender's ``gc.send`` span (None when not recorded),
    #: which reaches the deliverers because messages travel by reference
    _fields = __slots__[:-4]

    def __init__(
        self,
        group: str,
        sender: str,
        view_id: int,
        gseq: int,
        ts: int,
        kind: str,
        payload: Any,
        ticket: Optional[int],
        vector: Optional[Dict[str, int]],
        acks: Dict[str, int],
        hb_period: float = 0.0,
        era: str = "",
        pushback: float = 0.0,
    ):
        self.group = group
        self.sender = sender
        self.view_id = view_id
        self.gseq = gseq
        self.ts = ts
        self.kind = kind
        self.payload = payload
        self.ticket = ticket
        self.vector = vector
        self.acks = acks
        self.hb_period = hb_period
        self.era = era
        self.pushback = pushback
        self.msg_id: Tuple[int, str, int] = (view_id, sender, gseq)
        self.is_null = kind == KIND_NULL
        self._wire_size: Optional[int] = None
        self.span: Any = None

    def __repr__(self) -> str:
        extra = f" tkt={self.ticket}" if self.ticket is not None else ""
        return f"<{self.kind} {self.group}/{self.sender}#{self.gseq} ts={self.ts}{extra}>"


@corba_struct
class TicketMsg:
    """Asymmetric ordering ticket: ``target`` message gets global ``ticket``."""

    __slots__ = (
        "group", "sender", "view_id", "ticket", "target_sender", "target_gseq", "era",
        "_wire_size",
    )
    _fields = __slots__[:-1]  # ``_wire_size``: see DataMsg

    def __init__(
        self,
        group: str,
        sender: str,
        view_id: int,
        ticket: int,
        target_sender: str,
        target_gseq: int,
        era: str = "",
    ):
        self.group = group
        self.sender = sender
        self.view_id = view_id
        self.ticket = ticket
        self.target_sender = target_sender
        self.target_gseq = target_gseq
        self.era = era
        self._wire_size: Optional[int] = None

    @property
    def tickets(self) -> List[Tuple[int, str, int]]:
        """The assignment as a run of one, in ``TicketBatchMsg.tickets`` form."""
        return [(self.ticket, self.target_sender, self.target_gseq)]

    def __repr__(self) -> str:
        return (
            f"<ticket {self.ticket} -> {self.group}/{self.target_sender}"
            f"#{self.target_gseq}>"
        )


@corba_struct
class TicketBatchMsg:
    """A coalesced run of ticket assignments from one sequencer.

    ``tickets`` is a list of ``(ticket, target_sender, target_gseq)``
    triples in strictly increasing ticket order — the same order the
    sequencer assigned them, so receivers unpack sequentially through the
    exact single-ticket insertion path and cross-group merge semantics are
    preserved (the batch occupies one channel slot, hence one FIFO arrival,
    for all its tickets).
    """

    __slots__ = ("group", "sender", "view_id", "tickets", "era", "_wire_size")
    _fields = __slots__[:-1]  # ``_wire_size``: see DataMsg

    def __init__(
        self,
        group: str,
        sender: str,
        view_id: int,
        tickets: List[Tuple[int, str, int]],
        era: str = "",
    ):
        self.group = group
        self.sender = sender
        self.view_id = view_id
        self.tickets = [tuple(entry) for entry in tickets]
        self.era = era
        self._wire_size: Optional[int] = None

    def __repr__(self) -> str:
        if self.tickets:
            span = f"{self.tickets[0][0]}..{self.tickets[-1][0]}"
        else:
            span = "empty"
        return f"<ticket-batch {span} ({len(self.tickets)}) {self.group}>"


@corba_struct
class JoinReq:
    """Request to join ``group``; routed to the coordinator."""

    __slots__ = ("group", "member")
    _fields = __slots__

    def __init__(self, group: str, member: str):
        self.group = group
        self.member = member


@corba_struct
class LeaveReq:
    """Voluntary departure from ``group``; routed to the coordinator."""

    __slots__ = ("group", "member")
    _fields = __slots__

    def __init__(self, group: str, member: str):
        self.group = group
        self.member = member


@corba_struct
class SuspectMsg:
    """Failure suspicion report, sent to the (believed) coordinator."""

    __slots__ = ("group", "suspect")
    _fields = __slots__

    def __init__(self, group: str, suspect: str):
        self.group = group
        self.suspect = suspect


@corba_struct
class FlushReq:
    """``coordinator`` starts flush ``attempt`` of view ``view_id``; it sends
    this to every member it proposes and answers it itself."""

    __slots__ = ("group", "view_id", "attempt", "coordinator")
    _fields = __slots__

    def __init__(self, group: str, view_id: int, attempt: int, coordinator: str):
        self.group = group
        self.view_id = view_id
        self.attempt = attempt
        self.coordinator = coordinator


@corba_struct
class FlushOk:
    """A member's flush contribution: its unstable messages and the ordering
    tickets it knows.  The coordinator redistributes the union so every
    survivor can deliver exactly the same closed set; each survivor's own
    ordering state decides which of it is still undelivered there.
    """

    __slots__ = ("group", "view_id", "attempt", "sender", "unstable", "tickets")
    _fields = __slots__

    def __init__(
        self,
        group: str,
        view_id: int,
        attempt: int,
        sender: str,
        unstable: List[DataMsg],
        tickets: List[Tuple[int, str, int]],
    ):
        self.group = group
        self.view_id = view_id
        self.attempt = attempt
        self.sender = sender
        self.unstable = list(unstable)
        self.tickets = list(tickets)


@corba_struct
class ViewInstall:
    """Coordinator's final word: the new view plus the closing message set."""

    __slots__ = ("group", "view", "attempt", "config", "unstable", "tickets")
    _fields = __slots__

    def __init__(
        self,
        group: str,
        view: GroupView,
        attempt: int,
        config: GroupConfig,
        unstable: List[DataMsg],
        tickets: List[Tuple[int, str, int]],
    ):
        self.group = group
        self.view = view
        self.attempt = attempt
        self.config = config
        self.unstable = list(unstable)
        self.tickets = list(tickets)


@corba_struct
class ChanData:
    """Reliable-channel frame: sequenced carrier for one protocol message.

    ``ack`` piggybacks the sender's cumulative receive acknowledgement for
    the reverse direction of the channel (same meaning as
    ``ChanAck.cum_seq``; None while nothing has been received yet).
    """

    __slots__ = ("seq", "inner", "ack")
    _fields = __slots__

    def __init__(self, seq: int, inner: Any, ack: Optional[int] = None):
        self.seq = seq
        self.inner = inner
        self.ack = ack


@corba_struct
class ChanAck:
    """Cumulative acknowledgement up to ``cum_seq``."""

    __slots__ = ("cum_seq",)
    _fields = __slots__

    def __init__(self, cum_seq: int):
        self.cum_seq = cum_seq


@corba_struct
class ChanNack:
    """Retransmission request for frames ``from_seq``..``to_seq`` inclusive."""

    __slots__ = ("from_seq", "to_seq")
    _fields = __slots__

    def __init__(self, from_seq: int, to_seq: int):
        self.from_seq = from_seq
        self.to_seq = to_seq


@corba_struct
class ChanReset:
    """Sender's answer to a NACK for frames it no longer holds: the receiver
    should advance its expectation to ``skip_to`` (frames below it are gone
    for good — e.g. dropped while a partition isolated the peer)."""

    __slots__ = ("skip_to",)
    _fields = __slots__

    def __init__(self, skip_to: int):
        self.skip_to = skip_to
