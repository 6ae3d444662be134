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
from repro.sim.core import Simulator

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
#: Sender-side probe period: retransmit the oldest unacked frame if no ack
#: arrives (covers the loss of a frame with no successors, which NACKs —
#: being gap-driven — can never detect).  Backs off exponentially while
#: unacknowledged so queueing delay on a congested path is never mistaken
#: for loss indefinitely.
PROBE_PERIOD = 100e-3
PROBE_BACKOFF = 2.0
PROBE_MAX_PERIOD = 2.0
#: Stop probing a peer after this many fruitless probes (presumed dead).
PROBE_MAX = 30


class _Outgoing:
    """Sender half: sequence numbers and a retransmission buffer whose keys
    are exactly ``range(low, next_seq)``: only an acked prefix ever leaves."""

    __slots__ = ("low", "next_seq", "buffer", "sent_at", "probe_timer", "probes")

    def __init__(self):
        self.low = 1
        self.next_seq = 1
        self.buffer: Dict[int, Any] = {}
        self.sent_at: Dict[int, float] = {}
        self.probe_timer = None
        self.probes = 0

    def ack(self, cum_seq: int) -> None:
        seq = self.low
        if cum_seq >= self.next_seq:
            cum_seq = self.next_seq - 1
        buffer = self.buffer
        sent_at = self.sent_at
        while seq <= cum_seq:
            del buffer[seq]
            del sent_at[seq]
            seq += 1
        self.low = seq
        self.probes = 0


class _Incoming:
    """Receiver half: contiguous delivery, gap detection, ack bookkeeping."""

    __slots__ = ("expected", "out_of_order", "unacked", "ack_timer", "nack_timer", "nack_tries")

    def __init__(self):
        self.expected = 1
        self.out_of_order: Dict[int, Any] = {}
        self.unacked = 0
        self.ack_timer = None
        self.nack_timer = None
        self.nack_tries = 0


class ChannelManager:
    """All channels of one NSO.

    ``transport(peer, message)`` is provided by the service and performs the
    actual (unreliable) send; ``upcall(peer, inner)`` receives each message
    in order.
    """

    def __init__(
        self,
        sim: Simulator,
        local: str,
        transport: Callable[[str, Any], None],
        upcall: Callable[[str, Any], None],
    ):
        self.sim = sim
        self.local = local
        self.transport = transport
        self.upcall = upcall
        # the two halves of each peer's channel, created on first use; a
        # NACK or reset from a peer with no half yet is ignored (``.get``)
        self._out: Dict[str, _Outgoing] = OnFirstUse(lambda peer: _Outgoing())
        self._in: Dict[str, _Incoming] = OnFirstUse(lambda peer: _Incoming())
        #: True while ``transport`` is being invoked for a *retransmitted*
        #: frame — the service reads this to classify the send under its own
        #: ``retransmit`` traffic kind instead of the frame's payload kind.
        self.retransmitting = False
        metrics = sim.obs.metrics
        self._retransmit_counter = metrics.counter("gc.channel.retransmissions")
        self._nack_counter = metrics.counter("gc.channel.nacks_sent")
        self._gap_skip_counter = metrics.counter("gc.channel.gap_skips")
        self._piggyback_counter = metrics.counter("gc.channel.acks_piggybacked")

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, peer: str, inner: Any) -> None:
        """Reliably send ``inner`` to ``peer`` (not to self)."""
        if peer == self.local:
            raise ValueError("channels do not loop back; deliver locally instead")
        out = self._out[peer]
        seq = out.next_seq
        out.next_seq = seq + 1
        out.buffer[seq] = inner
        out.sent_at[seq] = self.sim.now
        frame = ChanData(seq, inner)
        self._attach_ack(peer, frame)
        self.transport(peer, frame)
        if out.probe_timer is None:
            out.probe_timer = self.sim.schedule(PROBE_PERIOD, self._probe, peer)

    def _probe(self, peer: str) -> None:
        """Retransmit the oldest unacked frame if it has aged past the probe
        period (covers losses that NACKs cannot see)."""
        out = self._out[peer]
        out.probe_timer = None
        if not out.buffer:
            out.probes = 0
            return
        if out.probes > PROBE_MAX:
            # peer presumed dead; stop burning cycles (membership will have
            # removed it); drop the buffered backlog
            out.buffer.clear()
            out.sent_at.clear()
            out.low = out.next_seq
            out.probes = 0
            return
        # back off exponentially: a congested (but live) path acks
        # eventually, and each ack resets the backoff
        period = min(PROBE_PERIOD * (PROBE_BACKOFF ** out.probes), PROBE_MAX_PERIOD)
        oldest = out.low
        if self.sim.now - out.sent_at[oldest] >= period * 0.9:
            out.probes += 1
            self._retransmit_counter.inc()
            out.sent_at[oldest] = self.sim.now
            self._retransmit(peer, ChanData(oldest, out.buffer[oldest]))
        out.probe_timer = self.sim.schedule(period, self._probe, peer)

    def _retransmit(self, peer: str, frame: ChanData) -> None:
        """Send a repaired frame with the ``retransmitting`` flag raised."""
        self._attach_ack(peer, frame)
        self.retransmitting = True
        try:
            self.transport(peer, frame)
        finally:
            self.retransmitting = False

    def _attach_ack(self, peer: str, frame: ChanData) -> None:
        """Piggyback our cumulative receive ack for ``peer`` on an outgoing
        data frame, discharging any pending standalone-ack debt: a
        standalone ``ChanAck`` then only fires when the reverse direction
        stays silent past the ack deadline."""
        inc = self._in[peer]
        if inc.expected <= 1:
            return
        frame.ack = inc.expected - 1
        if inc.unacked:
            inc.unacked = 0
            self._piggyback_counter.value += 1
        if inc.ack_timer is not None:
            inc.ack_timer.cancel()
            inc.ack_timer = None

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_message(self, peer: str, message: Any) -> None:
        """Entry point for every channel-layer message from ``peer``."""
        cls = type(message)
        if cls is ChanData:
            self._on_data(peer, message)
        elif cls is ChanAck:
            self._out[peer].ack(message.cum_seq)
        elif cls is ChanNack:
            self._on_nack(peer, message)
        elif cls is ChanReset:
            self._on_reset(peer, message)

    def _on_data(self, peer: str, frame: ChanData) -> None:
        if frame.ack is not None:
            # piggybacked reverse-direction cumulative ack
            self._out[peer].ack(frame.ack)
        inc = self._in[peer]
        if frame.seq < inc.expected:
            self._bump_ack(peer, inc)  # duplicate: re-ack so sender can GC
            return
        if frame.seq > inc.expected:
            if frame.seq not in inc.out_of_order:
                inc.out_of_order[frame.seq] = frame.inner
            self._schedule_nack(peer, inc)
            return
        # contiguous: deliver it, then any successors a repaired gap held
        # back.  With no gap and no NACK timer there is no repair to reset
        # (only a frame's arrival ever fills the gap buffer, never an upcall).
        self.upcall(peer, frame.inner)
        inc.expected += 1
        if inc.out_of_order or inc.nack_timer is not None:
            while inc.expected in inc.out_of_order:
                self.upcall(peer, inc.out_of_order.pop(inc.expected))
                inc.expected += 1
            self._gap_progress(peer, inc)
        self._bump_ack(peer, inc)

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
        elif inc.ack_timer is None:
            inc.ack_timer = self.sim.schedule(ACK_DELAY, self._ack_timer_fired, peer)

    def _ack_timer_fired(self, peer: str) -> None:
        inc = self._in[peer]
        inc.ack_timer = None
        if inc.unacked:
            self._send_ack(peer, inc)

    def _send_ack(self, peer: str, inc: _Incoming) -> None:
        inc.unacked = 0
        if inc.ack_timer is not None:
            inc.ack_timer.cancel()
            inc.ack_timer = None
        self.transport(peer, ChanAck(inc.expected - 1))

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
            inc.expected = min(inc.out_of_order)
            while inc.expected in inc.out_of_order:
                self.upcall(peer, inc.out_of_order.pop(inc.expected))
                inc.expected += 1
            inc.nack_tries = 0
            if inc.out_of_order:
                self._schedule_nack(peer, inc)
            return
        self._send_nack(peer, inc)
        inc.nack_timer = self.sim.schedule(
            self._nack_period(inc.nack_tries), self._nack_timer_fired, peer
        )

    def _send_nack(self, peer: str, inc: _Incoming) -> None:
        first_missing = inc.expected
        last_missing = max(inc.out_of_order) - 1
        self._nack_counter.inc()
        self.transport(peer, ChanNack(first_missing, last_missing))

    def _on_nack(self, peer: str, nack: ChanNack) -> None:
        out = self._out.get(peer)
        if out is None:
            return
        repaired = False
        for seq in range(nack.from_seq, nack.to_seq + 1):
            inner = out.buffer.get(seq)
            if inner is not None:
                repaired = True
                self._retransmit_counter.inc()
                self._retransmit(peer, ChanData(seq, inner))
        if not repaired:
            # we no longer hold anything in the requested range (dropped
            # after giving up during a partition): tell the receiver to
            # skip forward, to our oldest unacked frame, instead of
            # re-NACKing forever
            self.transport(peer, ChanReset(out.low))

    def _on_reset(self, peer: str, reset: ChanReset) -> None:
        inc = self._in.get(peer)
        if inc is None or reset.skip_to <= inc.expected:
            return
        inc.expected = reset.skip_to
        for seq in [s for s in inc.out_of_order if s < inc.expected]:
            del inc.out_of_order[seq]
        while inc.expected in inc.out_of_order:
            self.upcall(peer, inc.out_of_order.pop(inc.expected))
            inc.expected += 1
        self._gap_progress(peer, inc)
        self._bump_ack(peer, inc)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def outstanding_to(self, peer: str) -> int:
        out = self._out.get(peer)
        return len(out.buffer) if out else 0

    def has_pending_gaps(self) -> bool:
        return any(inc.out_of_order for inc in self._in.values())
