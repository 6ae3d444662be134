"""Reliable FIFO channels between NewTop service objects.

Every pair of NSOs shares one logical channel per direction, multiplexing
all group traffic between the two.  The channel restores FIFO, loss-free
delivery on top of the (possibly lossy) simulated network:

- frames carry a per-channel sequence number;
- the receiver delivers contiguously, NACKs gaps, and re-NACKs on a timer;
- the sender buffers frames until cumulatively acknowledged.

FIFO-per-pair is load-bearing for the layers above: it makes a sender's
Lamport timestamps arrive monotonically (symmetric ordering) and makes a
sequencer's tickets arrive in increasing global order (asymmetric ordering
across overlapping groups).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.groupcomm.messages import ChanAck, ChanData, ChanNack, ChanReset
from repro.obs.metrics import OnFirstUse
from repro.sim.core import Deadline, Simulator

__all__ = ["ChannelManager"]

#: Receiver sends a cumulative ack at least every this many frames.
ACK_EVERY = 16
#: ...and no later than this after an unacknowledged receipt.
ACK_DELAY = 20e-3
#: Gap re-NACK period while missing frames remain outstanding; doubles per
#: consecutive retry (congested paths must not be NACK-stormed).
NACK_RETRY = 15e-3
NACK_BACKOFF = 1.5
#: Give up re-NACKing after this many attempts (peer presumed dead; the
#: membership layer will have removed it).
NACK_MAX_RETRIES = 12
#: Clamps of the sender's per-peer retransmission timeout, ``srtt + 4·rttvar``
#: over the acks of frames sent once (Jacobson/Karels, Karn); ``RTO_MIN``
#: also stands before the first sample.  See ``ChannelManager._probe``.
RTO_MIN = 100e-3
RTO_MAX = 2.0
#: Stop probing a peer after this many fruitless probes (presumed dead).
PROBE_MAX = 30


class _Outgoing:
    """Sender half: sequence numbers, a retransmission buffer whose keys are
    exactly ``range(low, next_seq)`` (only an acked prefix ever leaves), each
    frame's send time (``None`` once resent) and the path's round trip."""

    __slots__ = (
        "low", "next_seq", "buffer", "sent_at", "probe_timer", "probes", "probed",
        "srtt", "rttvar", "rto",
    )

    def __init__(self):
        self.low = 1
        self.next_seq = 1
        self.buffer: Dict[int, Any] = {}
        self.sent_at: Dict[int, Optional[float]] = {}
        self.probe_timer = None
        self.probes = 0
        self.probed = 0  # the oldest frame the last probe found unacked
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = RTO_MIN

    def ack(self, cum_seq: int, now: float) -> None:
        seq = self.low
        if cum_seq >= self.next_seq:
            cum_seq = self.next_seq - 1
        if cum_seq < seq:
            return  # nothing new: the probe's backoff stands
        sent_at = self.sent_at
        sent = sent_at[cum_seq]
        if sent is not None:
            rtt = now - sent
            if self.srtt is None:
                self.srtt, self.rttvar = rtt, rtt / 2
            else:
                err = rtt - self.srtt
                self.srtt += err / 8
                self.rttvar += ((err if err > 0 else -err) - self.rttvar) / 4
            rto = self.srtt + 4 * self.rttvar
            self.rto = RTO_MIN if rto < RTO_MIN else RTO_MAX if rto > RTO_MAX else rto
        buffer = self.buffer
        while seq <= cum_seq:
            del buffer[seq]
            del sent_at[seq]
            seq += 1
        self.low = seq
        self.probes = 0


class _Incoming:
    """Receiver half: contiguous delivery, gap detection, ack bookkeeping.
    ``ack_timer`` is the standalone-ack debt: armed by the first unacked
    receipt, disarmed by any frame that carries the ack."""

    __slots__ = ("expected", "out_of_order", "unacked", "ack_timer", "nack_timer", "nack_tries")

    def __init__(self, ack_timer: Deadline):
        self.expected = 1
        self.out_of_order: Dict[int, Any] = {}
        self.unacked = 0
        self.ack_timer = ack_timer
        self.nack_timer = None
        self.nack_tries = 0


class ChannelManager:
    """All channels of one NSO.

    ``transport(peer, message, kind)`` is provided by the service: it
    performs the actual (unreliable) send under the traffic ``kind`` the
    caller names, and returns whether the frame left this node (False once
    the node has crashed).  ``upcall(peer, inner)`` receives each message in
    order.
    """

    def __init__(
        self,
        sim: Simulator,
        local: str,
        transport: Callable[[str, Any, str], bool],
        upcall: Callable[[str, Any], None],
    ):
        self.sim = sim
        self.local = local
        self.transport = transport
        self.upcall = upcall
        # the two halves of each peer's channel, created on first use; a
        # NACK or reset from a peer with no half yet is ignored (``.get``)
        self._out: Dict[str, _Outgoing] = OnFirstUse(lambda peer: _Outgoing())
        self._in: Dict[str, _Incoming] = OnFirstUse(
            lambda peer: _Incoming(Deadline(sim, self._ack_timer_fired, peer))
        )
        metrics = sim.obs.metrics
        self._retransmit_counter = metrics.counter("gc.channel.retransmissions")
        self._nack_counter = metrics.counter("gc.channel.nacks_sent")
        self._gap_skip_counter = metrics.counter("gc.channel.gap_skips")
        self._piggyback_counter = metrics.counter("gc.channel.acks_piggybacked")

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, peer: str, inner: Any, kind: str) -> None:
        """Reliably send ``inner`` to ``peer`` (not to self) as traffic
        ``kind``, piggybacking the reverse ack as ``_attach_ack`` does."""
        if peer == self.local:
            raise ValueError("channels do not loop back; deliver locally instead")
        out = self._out[peer]
        seq = out.next_seq
        out.next_seq = seq + 1
        out.buffer[seq] = inner
        out.sent_at[seq] = self.sim.now
        inc = self._in[peer]
        if inc.expected > 1:
            if inc.unacked:
                inc.unacked = 0
                self._piggyback_counter.value += 1
            inc.ack_timer.due = None
            self.transport(peer, ChanData(seq, inner, inc.expected - 1), kind)
        else:
            self.transport(peer, ChanData(seq, inner), kind)
        if out.probe_timer is None:
            out.probe_timer = self.sim.schedule(out.rto, self._probe, peer)

    def _probe(self, peer: str) -> None:
        """Retransmit the oldest unacked frame if the last probe, a timeout
        ago, found it oldest already: this covers the loss of a frame with no
        successors, which gap-driven NACKs cannot see.  Each such probe
        doubles the timeout until an ack moves ``low``."""
        out = self._out[peer]
        out.probe_timer = None
        if not out.buffer:
            return
        if out.probes > PROBE_MAX:
            # peer presumed dead (membership will have removed it): drop the backlog
            out.buffer.clear()
            out.sent_at.clear()
            out.low = out.next_seq
            out.probes = 0
            return
        if out.low == out.probed:
            out.probes += 1
            self._retransmit(peer, out, out.low)
        out.probed = out.low
        timeout = min(out.rto * 2 ** out.probes, RTO_MAX)
        out.probe_timer = self.sim.schedule(timeout, self._probe, peer)

    def _retransmit(self, peer: str, out: _Outgoing, seq: int) -> None:
        """Resend buffered frame ``seq`` as ``retransmit`` traffic; its ack
        no longer times the path (Karn).  Counted only when the frame left
        the node: a crashed node's probes still fire but send nothing."""
        out.sent_at[seq] = None
        frame = ChanData(seq, out.buffer[seq])
        self._attach_ack(peer, frame)
        if self.transport(peer, frame, "retransmit"):
            self._retransmit_counter.inc()

    def _attach_ack(self, peer: str, frame: ChanData) -> None:
        """Piggyback our cumulative receive ack for ``peer`` on a resent
        data frame (``send`` does the same in line), discharging any pending
        standalone-ack debt: a standalone ``ChanAck`` then only fires when
        the reverse direction stays silent past the ack deadline."""
        inc = self._in[peer]
        if inc.expected <= 1:
            return
        frame.ack = inc.expected - 1
        if inc.unacked:
            inc.unacked = 0
            self._piggyback_counter.value += 1
        inc.ack_timer.due = None

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_message(self, peer: str, message: Any) -> None:
        """Entry point for every channel-layer message from ``peer``.  An
        in-order data frame is taken here in full; a gap or a duplicate goes
        to ``_out_of_sequence``."""
        cls = type(message)
        if cls is ChanData:
            ack = message.ack
            if ack is not None:
                # piggybacked reverse-direction cumulative ack; one below
                # ``low`` acknowledges nothing new and leaves the probe alone
                out = self._out[peer]
                if ack >= out.low:
                    out.ack(ack, self.sim.now)
            inc = self._in[peer]
            if message.seq != inc.expected:
                self._out_of_sequence(peer, inc, message)
                return
            # contiguous: deliver it, then any successors a repaired gap held
            # back.  With no gap and no NACK timer there is no repair to
            # reset (only a frame's arrival ever fills the gap buffer, never
            # an upcall).  A send made by the upcall piggybacks the ack of
            # the frames before this one, as the increment follows it
            self.upcall(peer, message.inner)
            inc.expected += 1
            if inc.out_of_order or inc.nack_timer is not None:
                while inc.expected in inc.out_of_order:
                    self.upcall(peer, inc.out_of_order.pop(inc.expected))
                    inc.expected += 1
                self._gap_progress(peer, inc)
            # the ack debt, as ``_bump_ack`` settles it
            inc.unacked += 1
            if inc.unacked >= ACK_EVERY:
                self._send_ack(peer, inc)
            elif inc.ack_timer.due is None:
                inc.ack_timer.arm(ACK_DELAY)
        elif cls is ChanAck:
            self._out[peer].ack(message.cum_seq, self.sim.now)
        elif cls is ChanNack:
            self._on_nack(peer, message)
        elif cls is ChanReset:
            self._on_reset(peer, message)

    def _out_of_sequence(self, peer: str, inc: _Incoming, frame: ChanData) -> None:
        """A data frame past a gap (buffer it and NACK the gap) or already
        delivered (re-ack so the sender can GC)."""
        if frame.seq < inc.expected:
            self._bump_ack(peer, inc)
            return
        if frame.seq not in inc.out_of_order:
            inc.out_of_order[frame.seq] = frame.inner
        self._schedule_nack(peer, inc)

    def _gap_progress(self, peer: str, inc: _Incoming) -> None:
        """Reset NACK bookkeeping after contiguous delivery passed a gap.

        Once a gap fills, ``nack_tries`` and its backoff belong to history:
        a later, unrelated gap must start from the base retry interval, not
        mid-backoff from a repair that already succeeded.
        """
        if inc.nack_timer is not None:
            inc.nack_timer.cancel()
            inc.nack_timer = None
        inc.nack_tries = 0
        if inc.out_of_order:
            # the head gap filled but a later one remains: restart the NACK
            # cycle for it at the base interval
            self._schedule_nack(peer, inc)

    # ------------------------------------------------------------------
    # acknowledgements
    # ------------------------------------------------------------------
    def _bump_ack(self, peer: str, inc: _Incoming) -> None:
        inc.unacked += 1
        if inc.unacked >= ACK_EVERY:
            self._send_ack(peer, inc)
        elif inc.ack_timer.due is None:
            inc.ack_timer.arm(ACK_DELAY)

    def _ack_timer_fired(self, peer: str) -> None:
        inc = self._in[peer]
        if inc.unacked:
            self._send_ack(peer, inc)

    def _send_ack(self, peer: str, inc: _Incoming) -> None:
        inc.unacked = 0
        inc.ack_timer.due = None
        self.transport(peer, ChanAck(inc.expected - 1), "control")

    # ------------------------------------------------------------------
    # gap repair
    # ------------------------------------------------------------------
    def _schedule_nack(self, peer: str, inc: _Incoming) -> None:
        if inc.nack_timer is not None:
            return
        self._send_nack(peer, inc)
        inc.nack_timer = self.sim.schedule(NACK_RETRY, self._nack_timer_fired, peer)

    def _nack_period(self, tries: int) -> float:
        return min(NACK_RETRY * (NACK_BACKOFF ** tries), 1.0)

    def _nack_timer_fired(self, peer: str) -> None:
        inc = self._in[peer]
        inc.nack_timer = None
        if not inc.out_of_order:
            inc.nack_tries = 0
            return
        inc.nack_tries += 1
        if inc.nack_tries > NACK_MAX_RETRIES:
            # Peer presumed crashed: skip the gap so later traffic (if the
            # peer somehow recovers) is not blocked forever.  Stale messages
            # are filtered by view ids above us.
            self._gap_skip_counter.inc()
            self._skip_to(peer, inc, min(inc.out_of_order))
            return
        self._send_nack(peer, inc)
        inc.nack_timer = self.sim.schedule(
            self._nack_period(inc.nack_tries), self._nack_timer_fired, peer
        )

    def _send_nack(self, peer: str, inc: _Incoming) -> None:
        first_missing = inc.expected
        last_missing = max(inc.out_of_order) - 1
        self._nack_counter.inc()
        self.transport(peer, ChanNack(first_missing, last_missing), "control")

    def _on_nack(self, peer: str, nack: ChanNack) -> None:
        out = self._out.get(peer)
        if out is None:
            return
        held = range(max(nack.from_seq, out.low), min(nack.to_seq + 1, out.next_seq))
        for seq in held:
            self._retransmit(peer, out, seq)
        if not held:
            # we no longer hold anything in the requested range (dropped
            # after giving up during a partition): tell the receiver to
            # skip forward, to our oldest unacked frame, instead of
            # re-NACKing forever
            self.transport(peer, ChanReset(out.low), "control")

    def _on_reset(self, peer: str, reset: ChanReset) -> None:
        inc = self._in.get(peer)
        if inc is not None and reset.skip_to > inc.expected:
            self._skip_to(peer, inc, reset.skip_to)

    def _skip_to(self, peer: str, inc: _Incoming, seq: int) -> None:
        """Give up on every frame below ``seq``: deliver what waited beyond
        it in order, restart repair for any later gap, and ack."""
        inc.expected = seq
        for stale in [s for s in inc.out_of_order if s < seq]:
            del inc.out_of_order[stale]
        while inc.expected in inc.out_of_order:
            self.upcall(peer, inc.out_of_order.pop(inc.expected))
            inc.expected += 1
        self._gap_progress(peer, inc)
        self._bump_ack(peer, inc)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def unacked(self):
        """``(peer, message)`` of every frame sent and not yet acknowledged."""
        for peer, out in self._out.items():
            for inner in out.buffer.values():
                yield peer, inner

    def outstanding_to(self, peer: str) -> int:
        out = self._out.get(peer)
        return len(out.buffer) if out else 0

    def has_pending_gaps(self) -> bool:
        return any(inc.out_of_order for inc in self._in.values())
