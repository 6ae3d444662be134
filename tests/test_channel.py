"""Unit tests for the reliable FIFO channel layer (with a fake transport)."""

from typing import List, Tuple

import pytest

from repro.groupcomm.channel import ACK_EVERY, PROBE_MAX, RTO_MAX, RTO_MIN, ChannelManager
from repro.groupcomm.messages import ChanAck, ChanData, ChanNack, ChanReset
from repro.sim import Simulator


class Pipe:
    """Connects two ChannelManagers with controllable delivery."""

    def __init__(self, sim, loss_seqs=None):
        self.sim = sim
        self.loss_seqs = set(loss_seqs or [])  # ChanData seqs to drop once
        self.down = False  # True = the path drops everything, both ways
        self.delay = lambda now: 1e-3  # one-way delay of a frame sent at ``now``
        #: every (src, kind, message) handed to the transport, lost or not
        self.sent: List[Tuple[str, str, object]] = []
        self.a = None
        self.b = None
        self.delivered_a: List = []
        self.delivered_b: List = []
        self.a = ChannelManager(sim, "a", self._send_from("a"), lambda p, m: self.delivered_a.append(m))
        self.b = ChannelManager(sim, "b", self._send_from("b"), lambda p, m: self.delivered_b.append(m))

    def _send_from(self, src):
        def transport(peer, message, kind):
            # both ends stay up, so every frame leaves its node: the path may
            # still lose it
            self.sent.append((src, kind, message))
            if self.down:
                return True
            if (
                isinstance(message, ChanData)
                and (src, message.seq) in self.loss_seqs
            ):
                self.loss_seqs.discard((src, message.seq))
                return True
            target = self.b if peer == "b" else self.a
            self.sim.schedule(self.delay(self.sim.now), target.on_message, src, message)
            return True

        return transport


def test_in_order_delivery():
    sim = Simulator()
    pipe = Pipe(sim)
    for i in range(10):
        pipe.a.send("b", i, "data")
    sim.run()
    assert pipe.delivered_b == list(range(10))


def test_lost_frame_is_nacked_and_retransmitted():
    sim = Simulator()
    pipe = Pipe(sim, loss_seqs={("a", 3)})
    for i in range(1, 7):
        pipe.a.send("b", f"m{i}", "data")
    sim.run(until=1.0)
    assert pipe.delivered_b == [f"m{i}" for i in range(1, 7)]
    metrics = sim.obs.metrics
    assert metrics.counter_value("gc.channel.nacks_sent") >= 1
    assert metrics.counter_value("gc.channel.retransmissions") >= 1


def test_multiple_losses_recovered():
    sim = Simulator()
    pipe = Pipe(sim, loss_seqs={("a", 2), ("a", 4), ("a", 5)})
    for i in range(1, 9):
        pipe.a.send("b", i, "data")
    sim.run(until=2.0)
    assert pipe.delivered_b == list(range(1, 9))


def test_acks_garbage_collect_sender_buffer():
    sim = Simulator()
    pipe = Pipe(sim)
    for i in range(ACK_EVERY + 2):
        pipe.a.send("b", i, "data")
    sim.run(until=1.0)
    # the cumulative ack must have cleared (most of) the buffer
    assert pipe.a.outstanding_to("b") <= 2


def test_duplicate_frames_ignored():
    sim = Simulator()
    pipe = Pipe(sim)
    pipe.a.send("b", "x", "data")
    sim.run()
    # replay frame 1 directly
    pipe.b.on_message("a", ChanData(1, "x"))
    sim.run()
    assert pipe.delivered_b == ["x"]


def test_bidirectional_channels_independent():
    sim = Simulator()
    pipe = Pipe(sim)
    pipe.a.send("b", "to-b", "data")
    pipe.b.send("a", "to-a", "data")
    sim.run()
    assert pipe.delivered_b == ["to-b"]
    assert pipe.delivered_a == ["to-a"]


def test_send_to_self_rejected():
    sim = Simulator()
    pipe = Pipe(sim)
    with pytest.raises(ValueError):
        pipe.a.send("a", "loop", "data")


def test_gap_skipped_after_max_retries():
    """A permanently-lost frame from a dead peer eventually stops blocking."""
    sim = Simulator()
    delivered = []
    # transport that drops frame 1 forever and all NACKs (dead peer)
    mgr_holder = {}

    def transport(peer, message, kind):
        if isinstance(message, ChanNack):
            return  # peer is dead: repair never happens
        sim.schedule(1e-3, mgr_holder["b"].on_message, "a", message)

    def b_transport(peer, message, kind):
        return True  # b's acks go nowhere

    b = ChannelManager(sim, "b", b_transport, lambda p, m: delivered.append(m))
    mgr_holder["b"] = b
    # frame 1 never arrives; frames 2..4 do
    b.on_message("a", ChanData(2, "two"))
    b.on_message("a", ChanData(3, "three"))
    b.on_message("a", ChanData(4, "four"))
    sim.run(until=5.0)
    assert delivered == ["two", "three", "four"]
    assert not b.has_pending_gaps()


def test_reset_skips_a_range_the_sender_gave_up_on():
    """A sender that exhausts its probes drops its backlog (``_probe`` past
    ``PROBE_MAX``).  When the path returns, the receiver's NACK for that
    range finds nothing to repair and is answered with ``ChanReset``: the
    receiver skips to ``skip_to``, delivers what it buffered beyond it in
    order, acks, and the channel carries on."""
    sim = Simulator()
    pipe = Pipe(sim)
    resets = []
    orig_transport = pipe.a.transport

    def recording_transport(peer, message, kind):
        if isinstance(message, ChanReset):
            resets.append(message.skip_to)
        return orig_transport(peer, message, kind)

    pipe.a.transport = recording_transport
    pipe.down = True
    pipe.a.send("b", "m1", "data")
    pipe.a.send("b", "m2", "data")
    sim.run(until=90.0)
    assert pipe.a.outstanding_to("b") == 0  # gave up: backlog dropped
    assert pipe.delivered_b == []

    pipe.down = False
    pipe.loss_seqs = {("a", 5)}  # and an ordinary loss behind the skipped range
    for i in range(3, 7):
        pipe.a.send("b", f"m{i}", "data")
    sim.run(until=sim.now + 1.0)
    # frames 3, 4 and 6 waited out of order behind the NACK for 1..2; the
    # reset released 3 and 4, the gap at 5 was then repaired the normal way
    assert resets == [3]
    assert pipe.delivered_b == ["m3", "m4", "m5", "m6"]
    assert not pipe.b.has_pending_gaps()
    assert pipe.a.outstanding_to("b") == 0  # acked: the sender's buffer drained
    assert sim.obs.metrics.counter_value("gc.channel.gap_skips") == 0

    pipe.a.send("b", "m7", "data")
    sim.run(until=sim.now + 1.0)
    assert pipe.delivered_b[-1] == "m7"


def test_nack_backoff_resets_once_gap_fills():
    """Regression: after a gap is repaired, a later unrelated gap must start
    its NACK cycle from the base interval, not mid-backoff."""
    from repro.groupcomm.channel import NACK_RETRY

    sim = Simulator()
    pipe = Pipe(sim)
    b_in = pipe.b._in
    # first gap: frame 2 lost, repaired by NACK
    pipe.loss_seqs.add(("a", 2))
    for i in range(1, 5):
        pipe.a.send("b", i, "data")
    sim.run(until=0.5)
    assert pipe.delivered_b == [1, 2, 3, 4]
    # bookkeeping fully reset after the repair
    inc = b_in["a"]
    assert inc.nack_tries == 0
    assert inc.nack_timer is None
    # second, unrelated gap much later: the first NACK retry must be
    # scheduled at the base NACK_RETRY interval (no inherited backoff)
    pipe.loss_seqs.add(("a", 6))
    for i in range(5, 9):
        pipe.a.send("b", i, "data")
    sim.run(until=sim.now + 1e-3 + 1e-6)  # gap detected, retry timer armed
    assert inc.out_of_order
    assert inc.nack_timer is not None
    # hold the repair back: the retry NACK must leave within NACK_RETRY
    nacks = lambda: sum(1 for src, _k, m in pipe.sent if src == "b" and type(m) is ChanNack)
    before = nacks()
    pipe.down = True
    sim.run(until=sim.now + NACK_RETRY + 1e-9)
    assert nacks() == before + 1
    pipe.down = False
    sim.run(until=sim.now + 0.5)
    assert pipe.delivered_b == list(range(1, 9))


def test_nack_tries_reset_when_head_gap_fills_but_later_gap_remains():
    """The satellite bug: a head-gap repair while a later gap is still open
    left ``nack_tries`` mid-backoff.  Now the cycle restarts at base rate."""
    sim = Simulator()
    delivered = []
    b = ChannelManager(sim, "b", lambda p, m, k: True, lambda p, m: delivered.append(m))
    inc_factory = lambda: b._in["a"]
    # two gaps: frame 1 missing (head) and frame 3 missing (later)
    b.on_message("a", ChanData(2, "two"))
    b.on_message("a", ChanData(4, "four"))
    sim.run(until=0.1)  # several NACK retries elapse, backoff builds up
    assert inc_factory().nack_tries > 0
    tries_before = inc_factory().nack_tries
    # the head gap fills; the later gap (frame 3) remains
    b.on_message("a", ChanData(1, "one"))
    assert delivered == ["one", "two"]
    assert inc_factory().out_of_order  # frame 4 still buffered behind gap
    assert inc_factory().nack_tries == 0, (
        f"nack_tries must reset when a gap fills (was {tries_before})"
    )
    assert inc_factory().nack_timer is not None  # fresh cycle for frame 3
    b.on_message("a", ChanData(3, "three"))
    assert delivered == ["one", "two", "three", "four"]
    assert inc_factory().nack_tries == 0
    assert inc_factory().nack_timer is None


def test_piggybacked_acks_advance_sender_stability():
    """With reverse traffic flowing, standalone ChanAcks are suppressed but
    the sender's retransmit buffer still drains via piggybacked acks."""
    sim = Simulator()
    pipe = Pipe(sim)
    standalone_acks = []
    orig_transport = pipe.b.transport

    def counting_transport(peer, message, kind):
        if isinstance(message, ChanAck):
            standalone_acks.append(message)
        return orig_transport(peer, message, kind)

    pipe.b.transport = counting_transport
    # ping-pong: every a->b frame is followed by a b->a frame within the
    # ack deadline, so b never needs a standalone ack
    def pong(peer, inner):
        pipe.delivered_b.append(inner)
        pipe.b.send("a", f"re:{inner}", "data")

    pipe.b.upcall = pong
    for i in range(ACK_EVERY * 2):
        pipe.a.send("b", i, "data")
        sim.run(until=sim.now + 5e-3)
    sim.run(until=sim.now + 1e-3)
    assert pipe.delivered_b == list(range(ACK_EVERY * 2))
    # stability advanced purely through piggybacked acks
    assert pipe.a.outstanding_to("b") <= 1
    assert standalone_acks == []
    piggy = sim.obs.metrics.counter_value("gc.channel.acks_piggybacked")
    assert piggy > 0


def test_silent_reverse_direction_falls_back_to_timed_acks():
    """No reverse traffic: the ACK_DELAY timer still emits standalone acks
    and the sender's buffer drains as before."""
    from repro.groupcomm.channel import ACK_DELAY

    sim = Simulator()
    pipe = Pipe(sim)
    acks = []
    orig_transport = pipe.b.transport

    def counting_transport(peer, message, kind):
        if isinstance(message, ChanAck):
            acks.append(message)
        return orig_transport(peer, message, kind)

    pipe.b.transport = counting_transport
    pipe.a.send("b", "one-way", "data")
    sim.run(until=ACK_DELAY * 3)
    assert pipe.delivered_b == ["one-way"]
    assert len(acks) == 1
    assert pipe.a.outstanding_to("b") == 0


# ---------------------------------------------------------------------------
# the sender's watermark: buffer keys are exactly range(low, next_seq)
# ---------------------------------------------------------------------------
def assert_watermark(mgr, peer, low, next_seq):
    out = mgr._out[peer]
    assert (out.low, out.next_seq) == (low, next_seq)
    assert list(out.buffer) == list(range(low, next_seq))
    assert list(out.sent_at) == list(out.buffer)
    assert mgr.outstanding_to(peer) == next_seq - low
    # the timeout stays in its clamps; a probe only ever saw frames below ``low``
    assert RTO_MIN <= out.rto <= RTO_MAX
    assert out.probed <= out.low


def sender(sim):
    """A channel manager to "b" whose frames all vanish; returns it and the
    list of everything it handed to the transport."""
    sent = []

    def transport(peer, msg, kind):
        sent.append(msg)
        return True

    return ChannelManager(sim, "a", transport, lambda p, m: None), sent


def test_acks_stale_duplicate_and_beyond_next_seq_keep_the_buffer_consistent():
    sim = Simulator()
    a, _sent = sender(sim)
    for i in range(5):
        a.send("b", i, "data")
    assert_watermark(a, "b", 1, 6)
    a.on_message("b", ChanAck(2))
    assert_watermark(a, "b", 3, 6)
    for stale in (2, 1, 0):  # a duplicate, then older acks
        a.on_message("b", ChanAck(stale))
        assert_watermark(a, "b", 3, 6)
    a.on_message("b", ChanData(1, "reverse", ack=4))  # a piggybacked ack
    assert_watermark(a, "b", 5, 6)
    a.on_message("b", ChanAck(99))  # beyond anything sent
    assert_watermark(a, "b", 6, 6)
    a.send("b", "next", "data")
    assert_watermark(a, "b", 6, 7)
    a.on_message("b", ChanAck(6))
    assert_watermark(a, "b", 7, 7)


def test_frames_after_the_probe_give_up_are_buffered_and_acked_normally():
    sim = Simulator()
    a, _sent = sender(sim)
    a.send("b", "m1", "data")
    a.send("b", "m2", "data")
    sim.run(until=90.0)  # PROBE_MAX fruitless probes: the backlog is dropped
    assert_watermark(a, "b", 3, 3)
    a.send("b", "m3", "data")
    a.send("b", "m4", "data")
    assert_watermark(a, "b", 3, 5)
    a.on_message("b", ChanAck(3))
    assert_watermark(a, "b", 4, 5)
    a.on_message("b", ChanAck(4))
    assert_watermark(a, "b", 5, 5)


def test_reset_skips_to_the_lowest_unacked_frame_after_a_partial_ack():
    sim = Simulator()
    a, sent = sender(sim)
    for i in range(5):
        a.send("b", i, "data")
    a.on_message("b", ChanAck(2))
    a.on_message("b", ChanNack(1, 2))  # frames we no longer hold
    resets = [msg.skip_to for msg in sent if isinstance(msg, ChanReset)]
    assert resets == [3]
    assert_watermark(a, "b", 3, 6)


# ---------------------------------------------------------------------------
# the measured retransmission timeout
# ---------------------------------------------------------------------------
def retransmissions(sim):
    return sim.obs.metrics.counter_value("gc.channel.retransmissions")


def test_a_path_whose_queue_grows_is_timed_not_repaired():
    """A lossless FIFO path whose one-way delay grows from 25 to 400 ms over
    4 s, with a send every 10 ms both ways: a WAN pipe filling up.  A fixed
    100 ms probe took the queueing for loss (92 retransmissions); the
    timeout measured from the acks follows the round trip and resends
    nothing."""
    sim = Simulator()
    pipe = Pipe(sim)
    pipe.delay = lambda now: 25e-3 + 375e-3 * min(now, 4.0) / 4.0
    for i in range(400):
        sim.schedule(i * 10e-3, pipe.a.send, "b", i, "data")
        sim.schedule(i * 10e-3, pipe.b.send, "a", i, "data")
    sim.run(until=10.0)
    assert pipe.delivered_b == pipe.delivered_a == list(range(400))
    assert retransmissions(sim) == 0
    assert pipe.a.outstanding_to("b") == pipe.b.outstanding_to("a") == 0
    assert pipe.a._out["b"].rto > RTO_MIN  # measured, not the floor


def test_the_ack_of_a_resent_frame_leaves_the_timeout_alone():
    """Karn's rule: an ack of a frame sent twice cannot say which copy it
    answers, so it moves neither ``srtt`` nor the timeout; the next frame
    sent once is timed again."""
    sim = Simulator()
    a, sent = sender(sim)
    out = a._out["b"]
    a.send("b", "m1", "data")
    sim.run(until=50e-3)
    a.on_message("b", ChanAck(1))  # one clean 50 ms sample
    srtt, rto = out.srtt, out.rto
    assert srtt == pytest.approx(50e-3) and rto == pytest.approx(50e-3 + 4 * 25e-3)
    a.send("b", "m2", "data")
    sim.run(until=0.5)  # m2's acks are lost: the probe resends it
    assert [m.seq for m in sent if isinstance(m, ChanData)].count(2) >= 2
    a.on_message("b", ChanAck(2))
    assert (out.srtt, out.rto, out.probes) == (srtt, rto, 0)
    a.send("b", "m3", "data")
    sim.run(until=sim.now + 80e-3)
    a.on_message("b", ChanAck(3))
    assert out.srtt > srtt and out.rto > rto


def test_on_a_lan_path_the_probe_period_is_the_floor():
    """Pipe's 1 ms path measures a round trip (ack delay included) well
    below ``RTO_MIN``, so every probe is armed at ``RTO_MIN``: the period
    LAN runs had before the timeout was measured."""
    sim = Simulator()
    pipe = Pipe(sim)
    probe_delays = []
    schedule = sim.schedule

    def spy(delay, fn, *args):
        if fn == pipe.a._probe:
            probe_delays.append(delay)
        return schedule(delay, fn, *args)

    sim.schedule = spy
    for i in range(100):
        schedule(i * 7e-3, pipe.a.send, "b", i, "data")
    sim.run(until=2.0)
    out = pipe.a._out["b"]
    assert out.srtt is not None and out.srtt + 4 * out.rttvar < RTO_MIN
    assert out.rto == RTO_MIN
    assert len(probe_delays) > 5 and set(probe_delays) == {RTO_MIN}
    assert retransmissions(sim) == 0


def test_a_live_peer_behind_a_long_delay_gets_its_whole_backlog_once():
    """The give-up audit.  Past ``PROBE_MAX`` fruitless probes the sender
    drops its backlog, trusting membership to have removed the peer.  A
    slow but live peer (5 s one way, so no ack for 10 s) must never get
    there: the probes resend the oldest frame with a doubling timeout, the
    backlog stays buffered until acked, and the receiver delivers it once
    and in order however many copies arrive."""
    sim = Simulator()
    pipe = Pipe(sim)
    pipe.delay = lambda now: 5.0
    for i in range(20):
        pipe.a.send("b", i, "data")
    sim.run(until=9.9)  # the first ack is still on its way
    assert pipe.a.outstanding_to("b") == 20
    assert 0 < pipe.a._out["b"].probes <= PROBE_MAX
    assert retransmissions(sim) > 0
    sim.run(until=60.0)
    assert pipe.delivered_b == list(range(20))
    assert pipe.a.outstanding_to("b") == 0
    assert sim.obs.metrics.counter_value("gc.channel.gap_skips") == 0


# ---------------------------------------------------------------------------
# the traffic kind each frame is handed to the transport under
# ---------------------------------------------------------------------------
def test_channel_frames_travel_as_control_and_resent_frames_as_retransmit():
    """A frame's first send goes under the kind its caller named, any
    later send of the same sequence number under ``retransmit``; acks,
    NACKs and resets are ``control``."""
    sim = Simulator()
    pipe = Pipe(sim, loss_seqs={("a", 2)})
    for i in range(1, 5):
        pipe.a.send("b", i, "membership" if i == 3 else "data")
    sim.run(until=0.5)
    pipe.down = True  # then a backlog the sender gives up on: a reset
    pipe.a.send("b", 5, "data")
    sim.run(until=90.0)
    pipe.down = False
    pipe.loss_seqs = {("a", 7)}
    pipe.a.send("b", 6, "data")
    pipe.a.send("b", 7, "data")
    pipe.a.send("b", 8, "data")
    sim.run(until=sim.now + 1.0)
    assert pipe.delivered_b == list(range(1, 5)) + [6, 7, 8]
    first = {}
    by_class = {}
    for src, kind, message in pipe.sent:
        cls = type(message)
        if cls is ChanData:
            key = (src, message.seq)
            if key in first:
                assert kind == "retransmit", key
            else:
                first[key] = kind
            by_class.setdefault("retransmit" if kind == "retransmit" else cls, set()).add(kind)
        else:
            by_class.setdefault(cls, set()).add(kind)
    assert first[("a", 3)] == "membership"
    assert {k for key, k in first.items() if key != ("a", 3)} == {"data"}
    assert by_class == {
        ChanData: {"data", "membership"},
        "retransmit": {"retransmit"},
        ChanAck: {"control"},
        ChanNack: {"control"},
        ChanReset: {"control"},
    }


def test_a_resent_frame_carries_the_ack_a_fresh_send_would():
    """Both ways of putting a data frame on the wire piggyback the
    cumulative receive ack of that moment (none before anything arrived)."""
    sim = Simulator()
    pipe = Pipe(sim, loss_seqs={("a", 2)})
    framed = []
    orig_transport = pipe.a.transport

    def recording_transport(peer, message, kind):
        if isinstance(message, ChanData):
            expected = pipe.a._in["b"].expected
            framed.append((kind, message.ack, None if expected == 1 else expected - 1))
        return orig_transport(peer, message, kind)

    pipe.a.transport = recording_transport
    pipe.a.send("b", "m1", "data")  # nothing received yet: no ack rides
    pipe.b.send("a", "r1", "data")
    pipe.b.send("a", "r2", "data")
    sim.run(until=5e-3)
    pipe.a.send("b", "m2", "data")  # lost: NACKed once m3 arrives
    pipe.a.send("b", "m3", "data")
    sim.run(until=0.5)
    assert pipe.delivered_b == ["m1", "m2", "m3"]
    assert [kind for kind, _ack, _now in framed] == ["data", "data", "data", "retransmit"]
    assert all(ack == now for _kind, ack, now in framed)
    assert framed[0][1] is None and framed[-1][1] == 2


def test_a_piggybacked_ack_of_nothing_new_leaves_the_timeout_alone():
    sim = Simulator()
    a, _sent = sender(sim)
    out = a._out["b"]
    a.send("b", "m1", "data")
    sim.run(until=50e-3)
    a.on_message("b", ChanAck(1))
    a.send("b", "m2", "data")
    sim.run(until=0.5)  # m2 goes unacked: the probe backs off
    state = (out.srtt, out.rttvar, out.rto, out.probes, out.low)
    assert out.probes > 0
    for stale in (0, 1):  # below ``low``: it acknowledges nothing new
        a.on_message("b", ChanData(1, "reverse", ack=stale))
        assert (out.srtt, out.rttvar, out.rto, out.probes, out.low) == state
    a.on_message("b", ChanData(2, "reverse", ack=2))
    assert (out.probes, out.low) == (0, 3)
