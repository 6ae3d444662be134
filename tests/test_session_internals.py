"""Session internals: state machine, stability, NULL scheduling, stats."""

from collections import deque
from types import MethodType
from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

import repro.groupcomm.session as session_module
from repro.errors import NotMember
from repro.groupcomm import GroupConfig, Liveliness, LivelinessConfig, Ordering
from repro.groupcomm.messages import KIND_DATA, KIND_NULL, DataMsg, ViewInstall
from repro.groupcomm.session import GroupSession
from repro.groupcomm.views import GroupView
from repro.sim.core import Deadline
from tests.conftest import Cluster, Collector
from tests.test_groupcomm_basic import build_group


def test_session_stats_track_traffic():
    c = Cluster(2)
    sessions = build_group(c, GroupConfig(ordering=Ordering.ASYMMETRIC))
    Collector(sessions[1])
    for i in range(5):
        sessions[0].send(i)
    c.run(1.0)
    assert sessions[0].stats.sent == 5
    assert sessions[0].stats.delivered == 5  # own messages loop back
    assert sessions[1].stats.delivered == 5
    assert sessions[1].stats.sent == 0
    assert sessions[0].stats.views >= 1


def test_unstable_buffer_drains_after_quiescence():
    c = Cluster(3)
    sessions = build_group(c, GroupConfig(ordering=Ordering.ASYMMETRIC))
    for i in range(10):
        sessions[0].send(i)
    c.run(2.0)
    assert all(not s.unstable for s in sessions)
    assert all(not s.has_outstanding() for s in sessions)


def test_acks_piggyback_on_data_without_extra_nulls(monkeypatch):
    """Receivers that talk back promptly never owe ack-NULLs."""
    monkeypatch.setattr(session_module, "ACK_DELAY", 50e-3)
    c = Cluster(2)
    sessions = build_group(c, GroupConfig(ordering=Ordering.ASYMMETRIC))

    # ping-pong: each delivery triggers a reply from the other member
    def ponger(sender, payload):
        if isinstance(payload, int) and payload < 10:
            sessions[1].send(payload + 1)

    sessions[1].on_deliver = ponger
    sessions[0].send(0)
    c.run(0.04)  # finish before any 50ms ack timer can fire
    assert sessions[1].stats.delivered >= 5
    assert sessions[0].stats.nulls_sent == 0
    assert sessions[1].stats.nulls_sent == 0


def test_symmetric_null_count_bounded_per_message():
    c = Cluster(3)
    sessions = build_group(c, GroupConfig(ordering=Ordering.SYMMETRIC))
    sessions[0].send("x")
    c.run(1.0)
    # sender self-ack + one NULL per idle receiver, plus at most a couple of
    # stability stragglers — never a storm
    total_nulls = sum(s.stats.nulls_sent for s in sessions)
    assert 2 <= total_nulls <= 8


def test_closed_session_rejects_operations():
    c = Cluster(2)
    sessions = build_group(c, GroupConfig())
    sessions[0].leave()
    c.run(1.0)
    with pytest.raises(NotMember):
        sessions[0].send("late")
    # idempotent leave
    assert sessions[0].leave().done


def test_an_install_whose_view_upcall_closes_the_session_replays_nothing():
    """``on_view`` may end the membership it is told of (here: a member that
    leaves once it is alone), and the install stops there: replaying the
    send queued behind the flush into the closed session would file it as
    unstable and raise ``KeyError`` on the emptied stability watermarks."""
    c = Cluster(2)
    session = build_group(c, GroupConfig())[0]
    view = session.view
    session.state = "flushing"  # what a flush in progress looks like here
    session.send("queued behind the flush")
    alone = GroupView(view.group, view.view_id + 1, [session.member_id], era=view.era)
    session.on_view = lambda _view, _joined, _left: session.leave()
    sent = session.stats.sent
    session.apply_view_install(ViewInstall(view.group, alone, 0, session.config, [], []))
    assert session.state == "closed" and session.left.done
    assert session.unstable == {} and session.stats.sent == sent
    assert c.service(0).session(view.group) is None


def test_group_details_none_while_joining():
    c = Cluster(2)
    c.service(0).create_group("g", GroupConfig())
    joiner = c.service(1).join_group("g", "n0")
    assert joiner.group_details() is None  # not installed yet
    assert joiner.state == "joining"
    c.run(1.0)
    assert joiner.group_details() is not None


def test_lively_group_keeps_heartbeating_while_idle():
    # default (adaptive) liveliness: the idle heartbeat backs off to
    # silence_period * max_silence_factor but never goes fully silent
    c = Cluster(2)
    config = GroupConfig(
        liveliness=Liveliness.LIVELY, silence_period=20e-3, suspicion_timeout=200e-3
    )
    sessions = build_group(c, config)
    before = sessions[0].stats.nulls_sent
    c.run(1.0)
    after = sessions[0].stats.nulls_sent
    # cap is 8 * 20 ms = 160 ms -> at least ~6 NULLs/s, far below the
    # static rate of ~50/s
    assert 3 <= after - before <= 15


def test_lively_group_static_heartbeat_when_adaptive_off():
    c = Cluster(2)
    config = GroupConfig(
        liveliness=Liveliness.LIVELY,
        silence_period=20e-3,
        suspicion_timeout=200e-3,
        liveliness_config=LivelinessConfig(adaptive=False),
    )
    sessions = build_group(c, config)
    before = sessions[0].stats.nulls_sent
    c.run(1.0)
    after = sessions[0].stats.nulls_sent
    assert after - before >= 20  # ~one per silence period


def test_event_driven_group_is_silent_while_idle():
    c = Cluster(2)
    sessions = build_group(c, GroupConfig(liveliness=Liveliness.EVENT_DRIVEN))
    sent_before = c.net.stats.messages_sent
    c.run(2.0)
    assert c.net.stats.messages_sent == sent_before  # total quiescence


LIVELY = Liveliness.LIVELY


@pytest.mark.parametrize(
    "config, delay",
    [
        # event-driven and lively static groups batch a pure ack ACK_DELAY
        (GroupConfig(), 10e-3),
        (GroupConfig(liveliness=LIVELY, liveliness_config=LivelinessConfig(adaptive=False)), 10e-3),
        # adaptive: silence_period * ACK_COALESCE_FACTOR, at least ACK_DELAY,
        # at most the advertised interval and half the suspicion timeout
        (GroupConfig(liveliness=LIVELY, silence_period=10e-3), 40e-3),
        (GroupConfig(liveliness=LIVELY, silence_period=2e-3, suspicion_timeout=1.0), 10e-3),
        (GroupConfig(liveliness=LIVELY, suspicion_timeout=100e-3), 50e-3),
        (
            GroupConfig(
                liveliness=LIVELY,
                suspicion_timeout=1.0,
                liveliness_config=LivelinessConfig(max_silence_factor=2.0),
            ),
            100e-3,
        ),
    ],
    ids=["event", "static", "adaptive", "adaptive-floor", "adaptive-suspicion", "adaptive-period"],
)
def test_a_data_receipt_arms_the_configured_ack_delay(monkeypatch, config, delay):
    """The NULL debt of a data receipt waits the delay its group's config
    fixes: at the creator, and at a joiner, which adopts the creator's
    config from its first ViewInstall (it joined with the defaults)."""
    config.ordering = Ordering.ASYMMETRIC  # no NULL_DELAY for ts progress
    armed = []
    arm = Deadline.arm

    def spy(self, wait):
        if getattr(self.fn, "__func__", None) is GroupSession._null_timer_fired:
            armed.append((self.fn.__self__.member_id, wait))
        arm(self, wait)

    c = Cluster(2)
    sessions = build_group(c, config)
    monkeypatch.setattr(Deadline, "arm", spy)
    for session in sessions:
        session.send(session.member_id)
    c.run(0.5)
    assert sorted(set(armed)) == [("n0", delay), ("n1", delay)]


# ---------------------------------------------------------------------------
# stability watermarks against the full recompute they replaced
# ---------------------------------------------------------------------------
def _full_recompute(self, reporter: str, acks: Dict[str, int]) -> None:
    """The reference: stability recomputed from scratch on every vector —
    per sender, the minimum of this member's own receipt (or send) top and
    every peer's last ack, releasing every unstable id at or below it."""
    self._acked[reporter] = acks
    unstable = self.unstable
    if not unstable or self.view is None:
        return
    members = self.view.members
    member_id = self.member_id
    acked = self._acked
    recv_gseq = self._recv_gseq
    own_top = self._gseq_next - 1
    stable: Dict[str, int] = {}
    for mid in unstable:
        sender = mid[1]
        if sender in stable:
            continue
        if sender != member_id and sender not in members:
            stable[sender] = 0
            continue
        low = own_top if sender == member_id else recv_gseq.get(sender, 0)
        if low > 0:
            for member in members:
                if member == member_id:
                    continue
                peer_acks = acked.get(member)
                theirs = 0 if peer_acks is None else peer_acks.get(sender, 0)
                if theirs < low:
                    low = theirs
                    if low <= 0:
                        break
        stable[sender] = low
    own_released = 0
    for msg_id in [mid for mid in unstable if mid[2] <= stable[mid[1]]]:
        if msg_id[1] == self.member_id:
            own_released += 1
        del unstable[msg_id]
    if own_released:
        self.flow.release(own_released)
        while True:
            payload = self.flow.drain()
            if payload is None:
                break
            self._do_send(payload, KIND_DATA)


def _member_n0(members, full_recompute: bool):
    """``n0``'s session in a view of ``members``, driven by hand (the
    simulator never runs), counting the window slots stability releases."""
    cluster = Cluster(len(members))
    view = GroupView("g", 1, members, era="n0#1")
    config = GroupConfig(ordering=Ordering.FIFO, send_window=2)
    session = GroupSession(cluster.service(0), "g", config, initial_view=view)
    session._reset_view_state(members)
    if full_recompute:
        session._ingest_acks = MethodType(_full_recompute, session)
    released = [0]
    release = session.flow.release

    def counting(count):
        released[0] += count
        release(count)

    session.flow.release = counting
    return session, released


# (op, peer, other, step): 0 own send, 1 peer data, 2 peer NULL,
# 3 a peer learns of others' messages, 4 n0 receives a peer's next frame
_ops = st.lists(
    st.tuples(
        st.integers(0, 4), st.integers(0, 3), st.integers(0, 4), st.integers(0, 2)
    ),
    min_size=10,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(peers=st.integers(0, 3), ops=_ops)
def test_watermarks_release_what_the_full_recompute_releases(peers, ops):
    members = [f"n{i}" for i in range(peers + 1)]
    new, new_released = _member_n0(members, full_recompute=False)
    ref, ref_released = _member_n0(members, full_recompute=True)
    names = members[1:]
    sent = {p: 0 for p in names}
    # what each peer acks per member: its own top, what it has received of
    # the others (any prefix of what they sent — possibly beyond n0's receipt)
    know = {p: {m: 0 for m in members} for p in names}
    inflight = {p: deque() for p in names}  # FIFO frames on their way to n0
    ts = 0
    for op, a, b, step in ops:
        if op == 0:
            new.send("x")
            ref.send("x")
            assert new._gseq_next == ref._gseq_next
            continue
        if not names:
            continue
        peer = names[a % len(names)]
        if op == 1 or op == 2:
            if op == 1:
                sent[peer] += 1
                know[peer][peer] = sent[peer]
            inflight[peer].append((op == 1, sent[peer], dict(know[peer])))
        elif op == 3:
            # b names one other member, or (past the end) all of them
            for other in members if b >= len(members) else members[b : b + 1]:
                if other != peer:
                    top = new._gseq_next - 1 if other == "n0" else sent[other]
                    know[peer][other] = min(top, know[peer][other] + step)
        elif inflight[peer]:
            is_data, gseq, acks = inflight[peer].popleft()
            ts += 1
            for session in (new, ref):
                session.receive(
                    peer,
                    DataMsg(
                        "g", peer, 1, gseq if is_data else 0, ts,
                        KIND_DATA if is_data else KIND_NULL,
                        None, None, None, acks, 0.0, era="n0#1",
                    ),
                )
            assert list(new.unstable) == list(ref.unstable)
            assert new_released[0] == ref_released[0]
