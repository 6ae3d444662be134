"""Group sessions: one member's state for one group.

A :class:`GroupSession` is the handle the invocation layer (and applications
using group communication directly) hold on a group.  It owns

- the installed view and member state machine
  (``joining`` → ``active`` ⇄ ``flushing`` → ``closed``);
- per-view sequence numbers, the unstable-message buffer and piggybacked
  stability tracking;
- the ordering strategy (symmetric / asymmetric / causal / FIFO);
- the time-silence + failure-suspicion machinery;
- the membership engine.

Sends issued while the session is joining or flushing are queued and go out
in the next active period, preserving the caller's FIFO order.

The file is staged in the order a message travels:

1. **send** — ``send`` (state, flow control) → ``_do_send`` (stamp, build
   the ``DataMsg``) → ``_multicast``, the one fan-out loop, which ticket
   announcements (``send_tickets``) share;
2. **receive** — ``receive``, the one view/era/state gate for data and
   tickets alike, which takes a data message's bookkeeping in line →
   stability (``_ingest_acks``, a watermark per sender: an ack vector
   re-evaluates only the senders its reporter was holding back) → NULL
   debt (the ``_null_timer`` deadline) → the ordering strategy;
3. **deliver** — ``_deliver_app``, the one upcall seam the strategies and
   mergers release messages through;
4. **view install** — ``apply_view_install`` / ``_close``.

Payloads are opaque: the session reads none.  The invocation layer's
latency tiling gets times from it (``stamps``, ``on_hold``), and maps
payloads to calls itself.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NotMember
from repro.groupcomm.config import GroupConfig, Liveliness
from repro.groupcomm.failuredetector import FailureDetector
from repro.groupcomm.flowcontrol import FlowController
from repro.groupcomm.membership import MembershipEngine
from repro.groupcomm.messages import (
    DataMsg,
    KIND_DATA,
    KIND_NULL,
    TicketBatchMsg,
    TicketMsg,
    ViewInstall,
)
from repro.groupcomm.ordering import make_ordering
from repro.groupcomm.views import GroupView
from repro.obs.tracer import UNSAMPLED
from repro.sim.core import Deadline
from repro.sim.futures import Future

__all__ = ["GroupSession"]

#: CPU cost of handing one delivered message up to the application object
#: (the local m3/m6 invocations of the paper's fig. 9).
DELIVER_COST = 30e-6

#: how long a member that received a message waits before emitting a NULL
#: (time-silence) message when it has nothing of its own to send — what
#: lets symmetric ordering progress
NULL_DELAY = 1e-3
#: how long a pure stability acknowledgement may be batched before a NULL
#: is emitted for it (longer = fewer NULLs under load)
ACK_DELAY = 10e-3
#: adaptive lively groups stretch that batching to ``silence_period *
#: ACK_COALESCE_FACTOR`` (bounded by the advertised interval and half the
#: suspicion timeout) so acks ride on the next data message whenever
#: traffic is flowing; ordering-critical NULLs keep ``NULL_DELAY``
ACK_COALESCE_FACTOR = 4.0


class SessionStats:
    """Per-session counters (for tests and benchmarks)."""

    def __init__(self):
        self.sent = 0
        self.nulls_sent = 0
        self.delivered = 0
        self.views = 0


class GroupSession:
    """One member's endpoint in one group."""

    def __init__(
        self,
        service,
        group: str,
        config: GroupConfig,
        initial_view: Optional[GroupView] = None,
    ):
        self.service = service
        self.sim = service.sim
        self.member_id = service.name
        self.group = group
        self.view: Optional[GroupView] = initial_view
        self.state = "active" if initial_view is not None else "joining"

        # application callbacks
        self.on_deliver: Optional[Callable[[str, Any], None]] = None
        self.on_view: Optional[Callable[[GroupView, List[str], List[str]], None]] = None
        #: told ``(payload, True)`` of a send held behind a join or flush,
        #: and ``(payload, False)`` of each data send while a phase flush
        #: hold is open anywhere
        self.on_hold: Optional[Callable[[Any, bool], None]] = None
        #: (arrival here or None, ordering release) of the message handed to
        #: ``on_deliver``, while the phase accountant has a call in flight
        self.stamps: Optional[Tuple[Optional[float], float]] = None

        # outcome futures
        self.joined = Future(name=f"joined:{group}@{self.member_id}")
        self.left = Future(name=f"left:{group}@{self.member_id}")
        if initial_view is not None:
            self.joined.resolve(initial_view)

        # per-view message state
        self._gseq_next = 1
        self._recv_gseq: Dict[str, int] = {}
        self._acked: Dict[str, Dict[str, int]] = {}
        self.unstable: Dict[Tuple[int, str, int], DataMsg] = {}
        #: stability watermarks (see ``_ingest_acks``): the highest stable
        #: gseq per sender, the senders each peer is holding back, and the
        #: senders whose unstable run has started since the last ack vector
        members = initial_view.members if initial_view is not None else ()
        self._released: Dict[str, int] = {m: 0 for m in members}
        self._held: Dict[str, List[str]] = {m: [] for m in members}
        self._woken: List[str] = []
        #: arrival times of data messages received while a call is in flight
        self._arrivals: Dict[Tuple[int, str, int], float] = {}
        self._queued_sends: List[Any] = []
        self._future_buffer: List[Tuple[str, Any]] = []
        self._last_sent_ts = 0
        self._max_seen_ts = 0
        self._acks_owed = False
        self._self_ack_owed = False
        #: the NULL debt: due when it must be checked, None while none is owed
        self._null_timer = Deadline(self.sim, self._null_timer_fired)
        self._leaving = False
        #: send-path pressure peers piggybacked on their latest message
        self._peer_pushback: Dict[str, float] = {}
        #: optional extra pressure folded into our advertised pushback —
        #: lets a request manager relay its *server group's* pressure into
        #: the client/server group so it reaches the client end to end
        self.pushback_source: Optional[Callable[[], float]] = None

        self.stats = SessionStats()
        obs = self.sim.obs
        self._tracer = obs.tracer
        self._flight = obs.flight
        self._phases = obs.phases
        self._views_counter = obs.metrics.counter("gc.views_installed")
        self._unstable_hist = obs.metrics.histogram("gc.unstable_depth")
        self._adopt_config(config)
        self.membership = MembershipEngine(self)
        if initial_view is not None:
            self.ordering.attach()
            self.detector.start()

    def _adopt_config(self, config: GroupConfig) -> None:
        """Build everything the group's configuration decides: at
        construction, and again when a joiner's first ``ViewInstall`` brings
        the group's real configuration (the creator's)."""
        self.config = config
        self.flow = FlowController(config.send_window, config.flow_max_queue or None)
        #: ordering backlog that reads as pushback 1.0 (a few windows' worth)
        self._pushback_pending_bound = 4.0 * config.send_window
        self.ordering = make_ordering(config.ordering, self)
        self.detector = FailureDetector(self)
        self._ack_delay = self._ack_flush_delay()
        self._keep_sequencer()

    def _keep_sequencer(self) -> None:
        """Set ``sequencer``, the ordering sequencer: the config hint if the
        view holds it, else rank 0.  Only a view or a config changes it."""
        hint = self.config.sequencer_hint
        view = self.view
        if not view:
            self.sequencer = ""
        else:
            self.sequencer = hint if hint and hint in view.members else view.members[0]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def members(self) -> List[str]:
        return list(self.view.members) if self.view else []

    def send(self, payload: Any, admitted: bool = False) -> None:
        """Multicast ``payload`` to the group with the configured ordering.

        One-way (asynchronous) send: returns immediately; delivery happens
        at every member — including the sender — via ``on_deliver``.  Sends
        beyond the flow-control window are queued and go out as earlier
        messages stabilise.  ``admitted`` marks a payload whose work already
        ran (a reply, a state update): like a view-change replay it queues
        past ``flow_max_queue`` instead of raising.
        """
        if self.state == "closed":
            raise NotMember(f"{self.member_id} is not a member of {self.group}")
        if self.state in ("joining", "flushing"):
            if self.on_hold is not None:
                self.on_hold(payload, True)
            self._queued_sends.append(payload)
            return
        acquire = self.flow.requeue if admitted else self.flow.try_acquire
        if acquire(payload):
            self._do_send(payload, KIND_DATA)
        # else the window is full: queued inside the flow controller
        # (try_acquire raises FlowQueueFull past max_queue — the caller sheds)

    def leave(self) -> Future:
        """Depart gracefully; resolves once the group has reformed.

        The intention persists across view changes: if the coordinator
        handling our request fails (or leaves) first, the request is
        re-issued to its successor on the next view install.
        """
        if self.state == "closed":
            return self.left
        self._leaving = True
        if self.view is not None and len(self.view.members) == 1:
            self._close()
            return self.left
        self.membership.request_leave()
        return self.left

    def group_details(self) -> Optional[GroupView]:
        """The paper's ``groupdetails`` operation: the current view."""
        return self.view

    def has_outstanding(self) -> bool:
        """Whether application messages are outstanding (event-driven arming)."""
        return bool(self.ordering.backlog or self.unstable or self._queued_sends)

    def has_scheduled_null(self) -> bool:
        """Whether a reactive NULL timer is pending (a send is imminent)."""
        return self._null_timer.due is not None

    def _needs_ts_progress(self) -> bool:
        return self.ordering.needs_nulls and self._last_sent_ts < self._max_seen_ts

    def local_pushback(self) -> float:
        """This member's own send-path pressure in [0, 1].

        The max of flow-control fullness (window + bounded queue) and the
        ordering backlog (messages received but not yet deliverable),
        normalised against a few windows' worth of pending work.  Advertised
        on every outgoing frame; admission control reads the group max.
        """
        flow = self.flow
        # flow-control fullness: the window, and a bounded queue's fill
        pressure = flow.in_flight / flow.window
        if flow.max_queue:
            queued = flow.queued / flow.max_queue
            if queued > pressure:
                pressure = queued
        backlog = self.ordering.backlog
        if backlog:
            pending = len(backlog) / self._pushback_pending_bound
            if pending > pressure:
                pressure = pending
        if self.pushback_source is not None:
            relayed = self.pushback_source()
            if relayed > pressure:
                pressure = relayed
        return pressure if pressure < 1.0 else 1.0

    def group_pushback(self) -> float:
        """The worst advertised pressure across the group (incl. our own)."""
        peak = self.local_pushback()
        peers = self._peer_pushback
        if peers:
            worst = max(peers.values())
            if worst > peak:
                peak = worst
        return peak

    # ------------------------------------------------------------------
    # sending machinery
    # ------------------------------------------------------------------
    def send_null(self) -> None:
        """Emit a time-silence NULL ("I am alive") message.

        NULLs also flow while flushing: membership agreement must not starve
        the failure detector of liveness evidence.
        """
        if self.state not in ("active", "flushing"):
            return
        self._do_send(None, KIND_NULL)
        self.stats.nulls_sent += 1

    def _do_send(self, payload: Any, kind: str) -> None:
        ts = self.service.clock.tick()
        self._last_sent_ts = ts
        self._acks_owed = False
        data = kind == KIND_DATA
        gseq = 0
        ticket = vector = None
        if data:
            gseq = self._gseq_next
            self._gseq_next += 1
            ticket, vector = self.ordering.stamp()
            self.detector.note_activity()
        msg = DataMsg(
            self.group,
            self.member_id,
            self.view.view_id,
            gseq,
            ts,
            kind,
            payload,
            ticket,
            vector,
            self._current_acks(),
            self.detector.advertise_period(),
            era=self.view.era,
            pushback=self.local_pushback(),
        )
        if data:
            self.unstable[msg.msg_id] = msg
            if gseq == self._released[self.member_id] + 1:
                self._woken.append(self.member_id)
            self.stats.sent += 1
            self._unstable_hist.record(float(len(self.unstable)))
            self._flight.record(
                self.member_id, "send", self.group, f"{self.member_id}#{gseq}"
            )
            if self._phases.flush_pending and self.on_hold is not None:
                self.on_hold(payload, False)
        tracer = self._tracer
        span = None
        if tracer.enabled and tracer.ctx is not UNSAMPLED:
            # group-ordered delivery is unblocked by *later* protocol
            # traffic, so deliverers cannot rely on scheduler context for
            # causality: the message carries its sender's span instead
            span = msg.span = tracer.start_span(
                "gc.send",
                kind="producer",
                node=self.member_id,
                attrs={
                    "group": self.group,
                    "msg.kind": kind,
                    "gseq": gseq,
                    "ts": ts,
                    "fanout": len(self.view.members) - 1,
                },
            )
        self._multicast(msg, span, kind)
        # symmetric ordering: peers can only deliver our message once they
        # hold a *later* timestamp from us — if nothing else goes out soon,
        # a NULL must follow (the sender-side half of the protocol traffic)
        self._self_ack_owed = data and self.ordering.needs_nulls
        if self._self_ack_owed:
            self._arm_null_timer(NULL_DELAY)
        self.ordering.on_local_send(msg)

    def send_tickets(self, tickets: List[Tuple[int, str, int]]) -> None:
        """Multicast a run of ``(ticket, target_sender, target_gseq)``
        assignments this member made as sequencer: a ``TicketMsg`` for a run
        of one, a ``TicketBatchMsg`` otherwise."""
        view = self.view
        first, sender, gseq = tickets[0]
        batch = len(tickets) > 1
        if batch:
            msg = TicketBatchMsg(
                self.group, self.member_id, view.view_id, tickets, era=view.era
            )
            label = f"batch[{len(tickets)}] {first}..{tickets[-1][0]}"
        else:
            msg = TicketMsg(
                self.group, self.member_id, view.view_id, first, sender, gseq, era=view.era
            )
            label = f"{first}->{sender}#{gseq}"
        self._flight.record(self.member_id, "ticket", self.group, label)
        tracer = self._tracer
        span = None
        if tracer.enabled and tracer.ctx is not UNSAMPLED:
            attrs = {"group": self.group, "ticket": first}
            if batch:
                attrs.update(batch=len(tickets), span=f"{first}..{tickets[-1][0]}")
            else:
                attrs["for"] = f"{sender}#{gseq}"
            span = tracer.start_span(
                "gc.ticket", kind="producer", node=self.member_id, attrs=attrs
            )
        self._multicast(msg, span, "ticket")

    def _multicast(self, msg: Any, span, kind: str) -> None:
        """The one fan-out: ``msg`` to every other member of the view, in
        view order, as traffic ``kind``, under the producer ``span`` (None:
        nothing to enter)."""
        tracer = self._tracer
        if span is not None:
            prev = tracer.ctx
            tracer.ctx = span
        send = self.service.channels.send
        me = self.member_id
        for member in self.view.members:
            if member != me:
                send(member, msg, kind)
        if span is not None:
            tracer.ctx = prev
            tracer.end_span(span)
        self.detector.last_sent = self.sim.now

    def _current_acks(self) -> Dict[str, int]:
        acks = dict(self._recv_gseq)
        acks[self.member_id] = self._gseq_next - 1
        return acks

    # ------------------------------------------------------------------
    # receive path (the service's channel upcall for data and tickets)
    # ------------------------------------------------------------------
    def receive(self, peer: str, msg: Any) -> None:
        """Admit a ``DataMsg``, ``TicketMsg`` or ``TicketBatchMsg`` through
        the one view/era/state gate and hand it to its stage.

        Liveness evidence (``detector.last_recv``) was already taken by the
        service's router, which sees every kind of protocol message.
        """
        state = self.state
        if state == "closed":
            return
        is_data = type(msg) is DataMsg
        if is_data:
            self.service.clock.observe(msg.ts)
        if state == "joining":
            # no view (hence no era) to judge against yet; the replay after
            # our install applies the checks below to everything buffered here
            self._future_buffer.append((peer, msg))
            return
        view = self.view
        if msg.era != view.era:
            # a frame from another incarnation of the group: channels outlive
            # sessions across restarts, so a dead incarnation's retransmitted
            # frames can surface here with view ids that alias ours
            return
        if msg.view_id > view.view_id:
            self._future_buffer.append((peer, msg))
            return
        if msg.view_id < view.view_id or msg.sender not in view.members:
            return
        if not is_data:
            self.ordering.on_tickets(msg.tickets)
            return
        sender = msg.sender
        detector = self.detector
        # the heartbeat interval the sender advertised scales its deadline
        period = msg.hb_period
        if period > 0.0 and sender != self.member_id:
            before = detector.peer_periods[sender]
            detector.peer_periods[sender] = period
            if period < before and before > detector.stretch_floor:
                detector.arm_watch()  # a stretched deadline shrank: pull the watch
        self._peer_pushback[sender] = msg.pushback
        is_null = msg.is_null
        if not is_null:
            # data activity: the backoff clock restarts (note_activity snaps
            # a stretched heartbeat interval back)
            detector.last_activity = self.sim.now
            if detector.committed_period != detector.base_period:
                detector.note_activity()
            gseq = msg.gseq
            self._recv_gseq[sender] = gseq
            key = (msg.view_id, sender, gseq)
            self.unstable[key] = msg
            if gseq == self._released[sender] + 1:
                self._woken.append(sender)
            if self._phases.calls:
                # raw arrival (before ordering), handed up at delivery
                self._arrivals[key] = self.sim.now
        self._ingest_acks(sender, msg.acks)
        if not is_null:
            # we owe the group a reply (see the NULL debt below)
            seen = self._max_seen_ts
            if msg.ts > seen:
                seen = self._max_seen_ts = msg.ts
            self._acks_owed = True
            if self.ordering.needs_nulls and self._last_sent_ts < seen:
                delay = NULL_DELAY
            else:
                delay = self._ack_delay
            # ``_arm_null_timer``, in line: an earlier pending check stands
            timer = self._null_timer
            due = timer.due
            if due is None or self.sim.now + delay < due:
                timer.arm(delay)
        self.ordering.on_data(msg)

    # ------------------------------------------------------------------
    # stability tracking
    # ------------------------------------------------------------------
    def _ingest_acks(self, reporter: str, acks: Dict[str, int]) -> None:
        """Take ``reporter``'s ack vector and release what it made stable.

        A sender's message is stable once every member holds it: its stable
        point is the minimum of this member's own receipt (or send) top and
        every peer's last ack for it.  Rather than recompute that per
        message, the session keeps ``_released[sender]`` (the highest stable
        gseq) and files each sender with unstable messages under the one
        peer whose ack holds it back, so a vector re-evaluates only the
        senders its reporter was holding back, plus those whose unstable
        run started since the last vector (``_woken``).  This is exact
        because three facts hold within a view, and ``_reset_view_state``
        starts the watermarks afresh whenever one could break:

        - a reporter's ack vectors never decrease per sender (FIFO
          channels, per-view sequence numbers), so a peer that is not the
          minimum cannot lower it, nor raise it by acking more;
        - a sender's unstable gseqs are gap-free, ``_released + 1`` up to
          its top, so a release is a range;
        - every unstable id carries the current view id.

        Every ack vector also names every member of the view, so the
        column minimum reads it without a default.
        """
        # the sender builds a fresh acks dict per message
        # (``_current_acks``) and, by the by-reference contract, nobody
        # mutates it afterwards, so it is stored as is, not copied
        self._acked[reporter] = acks
        held = self._held
        senders = held[reporter]
        woken = self._woken
        if woken:
            senders = senders + woken
            self._woken = []
        elif not senders:
            return
        held[reporter] = []
        view = self.view
        view_id = view.view_id
        members = view.members
        member_id = self.member_id
        acked = self._acked
        recv_gseq = self._recv_gseq
        released = self._released
        unstable = self.unstable
        own_released = 0
        for sender in senders:
            # own acks cap it: what we have received from (or sent as) it
            low = self._gseq_next - 1 if sender == member_id else recv_gseq[sender]
            holder = None
            for member in members:
                if member != member_id:
                    theirs = acked[member][sender]
                    if theirs < low:
                        low = theirs
                        holder = member
            done = released[sender]
            if low > done:
                for gseq in range(done + 1, low + 1):
                    del unstable[(view_id, sender, gseq)]
                released[sender] = low
                if sender == member_id:
                    own_released += low - done
            if holder is not None:
                # still unstable past ``low``: wait on the peer holding it
                held[holder].append(sender)
        if own_released:
            self.flow.release(own_released)
            while True:
                payload = self.flow.drain()
                if payload is None:
                    break
                self._do_send(payload, KIND_DATA)

    # ------------------------------------------------------------------
    # reactive NULL scheduling
    #
    # A NULL is owed after receiving a data message for two reasons:
    # - symmetric ordering needs our timestamp to pass the message's (else
    #   nobody can deliver it);
    # - stability needs our piggybacked acks to reach the sender (else the
    #   message stays outstanding everywhere and event-driven groups never
    #   quiesce).
    # Sending anything (data or null) within ``NULL_DELAY`` pays the debt.
    # ``receive`` incurs it: ordering progress needs a prompt NULL
    # (``NULL_DELAY``); a pure stability ack may be batched for longer
    # (``_ack_delay``), and in adaptive lively groups long enough that it
    # usually rides on the next data message.  The debt is one
    # ``Deadline``, ``_null_timer``: ``receive`` (in line) and a symmetric
    # data send (``_arm_null_timer``) arm it, and a view reset disarms it.
    # ------------------------------------------------------------------
    def _arm_null_timer(self, delay: float) -> None:
        """Have the NULL debt checked within ``delay`` (an earlier pending
        check stands; a later one is pulled forward)."""
        timer = self._null_timer
        due = timer.due
        if due is None or self.sim.now + delay < due:
            timer.arm(delay)

    def _ack_flush_delay(self) -> float:
        """How long a pure stability ack may wait for a data message to
        piggyback on before a NULL is emitted for it: fixed by the config,
        so ``_adopt_config`` stores it as ``_ack_delay``."""
        config = self.config
        if config.liveliness != Liveliness.LIVELY or not config.liveliness_config.adaptive:
            return ACK_DELAY
        window = max(ACK_DELAY, config.silence_period * ACK_COALESCE_FACTOR)
        # never be silent longer than the advertised interval allows, and
        # leave comfortable slack under peers' suspicion deadlines
        return min(window, self.detector.max_period, config.suspicion_timeout / 2.0)

    def _null_timer_fired(self) -> None:
        if self.state not in ("active", "flushing"):
            return
        if self._acks_owed or self._self_ack_owed or self._needs_ts_progress():
            self.send_null()

    # ------------------------------------------------------------------
    # delivery (the one upcall seam: strategies and mergers release here)
    # ------------------------------------------------------------------
    def _deliver_app(self, msg: DataMsg) -> None:
        if msg.is_null:
            return
        self.stats.delivered += 1
        self._flight.record(
            self.member_id, "deliver", self.group, f"{msg.sender}#{msg.gseq}"
        )
        arrivals = self._arrivals
        arrival = arrivals.pop((msg.view_id, msg.sender, msg.gseq), None) if arrivals else None
        if self.on_deliver is None:
            return
        stamps = (arrival, self.sim.now) if self._phases.calls else None
        tracer = self._tracer
        execute = self.service.node.execute
        if not tracer.enabled:
            execute(DELIVER_COST, self._upcall, None, msg.sender, msg.payload, stamps)
            return
        # parent on the *sender's* gc.send span, carried by the message: the
        # scheduler context here belongs to whichever protocol message
        # unblocked ordering, not to the message's causal origin.  A
        # recorded origin is recorded here even if the unblocking trace is
        # unsampled; an unrecorded one makes the upcall run UNSAMPLED, so
        # its downstream work allocates no spans either
        span = None
        if msg.span is not None:
            span = tracer.start_span(
                "gc.deliver",
                kind="consumer",
                node=self.member_id,
                parent=msg.span,
                attrs={"group": self.group, "sender": msg.sender, "gseq": msg.gseq},
            )
        prev = tracer.ctx
        tracer.ctx = UNSAMPLED if span is None else span
        execute(DELIVER_COST, self._upcall, span, msg.sender, msg.payload, stamps)
        tracer.ctx = prev

    def _upcall(self, span, sender: str, payload: Any, stamps) -> None:
        if self.state != "closed" and self.on_deliver is not None:
            self.stamps = stamps
            self.on_deliver(sender, payload)
        if span is not None:
            self._tracer.end_span(span)

    # ------------------------------------------------------------------
    # flush / view change support
    # ------------------------------------------------------------------
    def collect_flush_state(self):
        """(unstable messages, known tickets) for FlushOk."""
        if self.view is None:
            return [], []
        return list(self.unstable.values()), self.ordering.flush_tickets()

    def apply_view_install(self, install: ViewInstall) -> None:
        """Deliver the closing set, then adopt the new view."""
        joining = self.state == "joining"
        if joining:
            self._adopt_config(install.config)
        else:
            self.ordering.detach()
            for msg in self.ordering.finalize(install.unstable, install.tickets):
                self._deliver_app(msg)

        old_members = set(self.view.members) if self.view else set()
        self.view = install.view
        self._keep_sequencer()
        new_members = set(install.view.members)
        joined = [m for m in install.view.members if m not in old_members]
        left = sorted(old_members - new_members)

        self._reset_view_state(install.view.members)
        self.state = "active"
        self.stats.views += 1
        self._views_counter.inc()
        self._flight.record(
            self.member_id,
            "view",
            self.group,
            f"v{install.view.view_id} members={len(install.view.members)}"
            f" +{len(joined)} -{len(left)}",
        )
        self._tracer.event(
            "gc.view_install",
            group=self.group,
            view_id=install.view.view_id,
            members=len(install.view.members),
            joined=len(joined),
            left=len(left),
        )
        self.ordering.attach()
        self.detector.on_view_change()
        self.detector.start()
        if joining:
            self.joined.try_resolve(install.view)
        if self.on_view is not None:
            self.on_view(install.view, joined, left)
        if self.state == "closed":
            return  # the upcall ended the membership: nothing is replayed

        # replay buffered new-view traffic, then queued application sends
        # (both the flush-time queue and anything flow control held back)
        buffered, self._future_buffer = self._future_buffer, []
        for peer, message in buffered:
            self.receive(peer, message)
        held = self.flow.pop_all_queued()
        self.flow.reset()
        queued, self._queued_sends = self._queued_sends, []
        for payload in queued + held:
            # replay bypasses max_queue: this work was admitted before the
            # view change, so re-queueing it must not raise
            if self.flow.requeue(payload):
                self._do_send(payload, KIND_DATA)

        # a departure intention outlives coordinator changes
        if self._leaving and self.state == "active":
            if len(self.view.members) == 1:
                self._close()
            else:
                self.membership.request_leave()

    def _reset_view_state(self, members: List[str]) -> None:
        """Per-view message state starts fresh — at every install, and at
        close: a stale NULL debt (or its timer) must not survive into any
        later use of this member identity."""
        self.ordering.reset(members)
        self._gseq_next = 1
        self._recv_gseq = {m: 0 for m in members}
        # every ack vector names every member (``_current_acks`` copies
        # ``_recv_gseq``), and a peer not yet heard from has acked nothing
        zero = {m: 0 for m in members}
        self._acked = {m: zero for m in members}
        self.unstable = {}
        self._released = dict(zero)
        self._held = {m: [] for m in members}
        self._woken = []
        self._arrivals = {}
        self._last_sent_ts = self.service.clock.value
        self._max_seen_ts = 0
        self._acks_owed = False
        self._self_ack_owed = False
        self._peer_pushback = {}
        self._null_timer.due = None

    def _close(self) -> None:
        if self.state == "closed":
            return
        self.state = "closed"
        self.detector.stop()
        self.ordering.detach()
        self._reset_view_state([])
        self.service.drop_session(self.group)
        self.left.try_resolve(None)
        self.joined.try_fail(NotMember(f"{self.group}: membership ended"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        vid = self.view.view_id if self.view else "-"
        return f"<GroupSession {self.group}@{self.member_id} v{vid} {self.state}>"
