"""Group configuration: ordering protocol, liveliness, and timers.

The paper's flexibility claim rests on these knobs: a group can be created
with either total-order protocol (symmetric/asymmetric), weaker orders for
cheaper delivery (causal/FIFO), and either liveliness regime (lively vs
event-driven time-silence), per §3.
"""

from __future__ import annotations

from repro.orb.marshal import corba_struct

__all__ = ["Ordering", "Liveliness", "LivelinessConfig", "OrderingConfig", "GroupConfig"]


class Ordering:
    """Delivery-order guarantees (strongest to weakest)."""

    SYMMETRIC = "symmetric"  # total order via shared logical clocks
    ASYMMETRIC = "asymmetric"  # total order via a sequencer
    CAUSAL = "causal"  # causal order via vector clocks
    FIFO = "fifo"  # per-sender FIFO only

    ALL = (SYMMETRIC, ASYMMETRIC, CAUSAL, FIFO)
    TOTAL = (SYMMETRIC, ASYMMETRIC)


class Liveliness:
    """When the time-silence mechanism and failure suspector are armed."""

    LIVELY = "lively"  # always on, from group creation
    EVENT_DRIVEN = "event"  # only while messages are outstanding

    ALL = (LIVELY, EVENT_DRIVEN)


@corba_struct
class LivelinessConfig:
    """Quiescence-aware tuning of the time-silence mechanism.

    With ``adaptive`` on (lively groups only), the heartbeat interval
    doubles per silence period while the member is quiescent — no
    unstable-ack or timestamp debt, no pending reactive NULL — up to
    ``silence_period * max_silence_factor``, and snaps back to
    ``silence_period`` on the first data send or receive.  Every outgoing
    message advertises the sender's committed interval, and peers stretch a
    backed-off sender's suspicion deadline to three advertised periods (both
    constants live in :mod:`repro.groupcomm.failuredetector`).
    """

    __slots__ = ("adaptive", "max_silence_factor")
    _fields = __slots__

    def __init__(self, adaptive: bool = True, max_silence_factor: float = 8.0):
        if max_silence_factor < 1.0:
            raise ValueError("max_silence_factor must be >= 1.0")
        self.adaptive = bool(adaptive)
        self.max_silence_factor = max_silence_factor

    def __repr__(self) -> str:
        mode = "adaptive" if self.adaptive else "static"
        return f"LivelinessConfig({mode}, cap x{self.max_silence_factor})"


@corba_struct
class OrderingConfig:
    """Ordering-layer traffic tuning: sequencer ticket batching.

    ``ticket_batch_max``/``ticket_batch_delay`` let an asymmetric group's
    sequencer coalesce ticket assignments: tickets accumulate until either
    ``ticket_batch_max`` assignments are pending or ``ticket_batch_delay``
    seconds of virtual time elapse since the first pending assignment,
    whichever comes first, then go out as one batched ticket multicast.
    The defaults (batch of 1) preserve one-TicketMsg-per-data-message wire
    behaviour exactly.
    """

    __slots__ = ("ticket_batch_max", "ticket_batch_delay")
    _fields = __slots__

    def __init__(self, ticket_batch_max: int = 1, ticket_batch_delay: float = 2e-3):
        if ticket_batch_max < 1:
            raise ValueError("ticket_batch_max must be at least 1")
        if ticket_batch_delay < 0.0:
            raise ValueError("ticket_batch_delay must be >= 0")
        self.ticket_batch_max = int(ticket_batch_max)
        self.ticket_batch_delay = ticket_batch_delay

    def __repr__(self) -> str:
        batch = (
            f"batch<={self.ticket_batch_max}/{self.ticket_batch_delay * 1e3:g}ms"
            if self.ticket_batch_max > 1
            else "unbatched"
        )
        return f"OrderingConfig({batch})"


@corba_struct
class GroupConfig:
    """Per-group protocol parameters.

    ``silence_period`` is the lively-mode heartbeat period, and
    ``suspicion_timeout`` how long a silent member at that period is
    tolerated before it is suspected and membership agreement starts.
    The NULL and stability-ack delays are protocol constants of
    :mod:`repro.groupcomm.session`, the same for every group.
    """

    __slots__ = (
        "ordering",
        "liveliness",
        "silence_period",
        "suspicion_timeout",
        "flush_timeout",
        "sequencer_hint",
        "send_window",
        "flow_max_queue",
        "liveliness_config",
        "ordering_config",
    )
    _fields = __slots__

    def __init__(
        self,
        ordering: str = Ordering.SYMMETRIC,
        liveliness: str = Liveliness.EVENT_DRIVEN,
        silence_period: float = 50e-3,
        suspicion_timeout: float = 300e-3,
        flush_timeout: float = 150e-3,
        sequencer_hint: str = "",
        send_window: int = 64,
        flow_max_queue: int = 0,
        liveliness_config: "LivelinessConfig | None" = None,
        ordering_config: "OrderingConfig | None" = None,
    ):
        if ordering not in Ordering.ALL:
            raise ValueError(f"unknown ordering {ordering!r}")
        if liveliness not in Liveliness.ALL:
            raise ValueError(f"unknown liveliness {liveliness!r}")
        self.ordering = ordering
        self.liveliness = liveliness
        self.silence_period = silence_period
        self.suspicion_timeout = suspicion_timeout
        self.flush_timeout = flush_timeout
        #: preferred sequencer member for asymmetric groups; lets the
        #: invocation layer pin sequencer = request manager = primary (§4.2).
        #: It picks the first sequencer only: the install that removes the
        #: hinted member clears it, so rank 0 (the manager clients fail over
        #: to) keeps sequencing and a restarted member rejoins as a backup
        self.sequencer_hint = sequencer_hint
        if send_window < 1:
            raise ValueError("send_window must be at least 1")
        #: flow control: max own unstable data messages before sends queue
        self.send_window = send_window
        if flow_max_queue < 0:
            raise ValueError("flow_max_queue must be >= 0")
        #: flow control: bound on the local pending-send queue
        #: (0 = unbounded, the historical behaviour)
        self.flow_max_queue = int(flow_max_queue)
        self.liveliness_config = liveliness_config or LivelinessConfig()
        self.ordering_config = ordering_config or OrderingConfig()

    @classmethod
    def for_invocation(cls, **fields) -> "GroupConfig":
        """The invocation layer's groups (server, client/server, monitor)
        default to sequencer order, so that sequencer = request manager =
        primary can be pinned with ``sequencer_hint`` (§4.2)."""
        fields.setdefault("ordering", Ordering.ASYMMETRIC)
        return cls(**fields)

    def replace(self, **changes) -> "GroupConfig":
        """A copy with ``changes`` applied, validated like a fresh config."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return GroupConfig(**fields)

    @property
    def is_total(self) -> bool:
        return self.ordering in Ordering.TOTAL

    def __repr__(self) -> str:
        return f"GroupConfig({self.ordering}, {self.liveliness})"
