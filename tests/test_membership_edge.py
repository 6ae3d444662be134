"""Membership edge cases: concurrent changes, flush timeouts, stale traffic."""

import pytest

from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.groupcomm.membership import Suspect
from repro.groupcomm.messages import SuspectMsg
from tests.conftest import Cluster, Collector
from tests.invariants import check_invariants, record_protocol
from tests.test_groupcomm_basic import build_group

LIVELY_FAST = dict(
    liveliness=Liveliness.LIVELY, silence_period=20e-3, suspicion_timeout=100e-3
)


def test_concurrent_joins_converge():
    c = Cluster(5)
    c.service(0).create_group("g", GroupConfig())
    joiners = [c.services[f"n{i}"].join_group("g", "n0") for i in range(1, 5)]
    c.run(3.0)
    views = [c.services[name].session("g").view for name in c.names]
    assert all(v is not None for v in views)
    assert len({(v.view_id, tuple(v.members)) for v in views}) == 1
    assert set(views[0].members) == set(c.names)
    assert all(j.joined.done for j in joiners)


def test_join_and_leave_interleaved():
    c = Cluster(4)
    sessions = build_group(c, GroupConfig(), members=["n0", "n1", "n2"])
    # n2 leaves while n3 joins
    late = c.services["n3"].join_group("g", "n0")
    sessions[2].leave()
    c.run(3.0)
    final = c.services["n0"].session("g").view
    assert set(final.members) == {"n0", "n1", "n3"}
    assert late.joined.done
    assert sessions[2].state == "closed"


def test_simultaneous_crashes_of_two_members():
    c = Cluster(5)
    sessions = build_group(c, GroupConfig(**LIVELY_FAST))
    c.net.crash("n3")
    c.net.crash("n4")
    c.run(3.0)
    survivors = sessions[:3]
    assert all(set(s.view.members) == {"n0", "n1", "n2"} for s in survivors)
    assert len({s.view.view_id for s in survivors}) == 1


def test_crash_of_joiner_during_join():
    c = Cluster(3)
    build_group(c, GroupConfig(**LIVELY_FAST), members=["n0", "n1"])
    c.services["n2"].join_group("g", "n0")
    c.sim.schedule(5e-4, c.net.crash, "n2")  # dies mid-handshake
    c.run(3.0)
    view = c.services["n0"].session("g").view
    # the group either never admitted n2 or removed it again
    assert "n2" not in view.members or len(view.members) == 2


def test_whole_group_leaves_gracefully():
    c = Cluster(3)
    sessions = build_group(c, GroupConfig())
    for s in sessions:
        s.leave()
    c.run(3.0)
    assert all(s.state == "closed" for s in sessions)
    assert all(c.services[n].session("g") is None for n in c.names)


def test_stale_data_from_old_view_is_dropped():
    from repro.groupcomm.messages import DataMsg, KIND_DATA

    c = Cluster(2)
    sessions = build_group(c, GroupConfig())
    col = Collector(sessions[1])
    current_view = sessions[1].view.view_id
    stale = DataMsg("g", "n0", current_view - 1, 1, 99, KIND_DATA, "ghost", None, None, {})
    sessions[1].receive("n0", stale)
    c.run(0.5)
    assert ("n0", "ghost") not in col.deliveries


def test_view_ids_strictly_increase():
    c = Cluster(4)
    config = GroupConfig(**LIVELY_FAST)
    sessions = build_group(c, config)
    observed = []
    sessions[0].on_view = lambda v, j, l: observed.append(v.view_id)
    c.services["n3"].drop_session("g")
    sessions_late = c.services["n3"].join_group("g", "n0")
    c.run(2.0)
    c.net.crash("n1")
    c.run(2.0)
    assert observed == sorted(observed)
    assert len(set(observed)) == len(observed)


def test_flush_timeout_removes_unresponsive_member():
    """A member that dies exactly when a flush starts is dropped by the
    coordinator's flush timeout rather than blocking the view change."""
    c = Cluster(4)
    config = GroupConfig(
        liveliness=Liveliness.LIVELY,
        silence_period=20e-3,
        suspicion_timeout=150e-3,
        flush_timeout=100e-3,
    )
    sessions = build_group(c, config)
    # trigger a membership change (n3 leaves) and kill n2 at the same time,
    # so the flush for n3's departure stalls on n2
    sessions[3].leave()
    c.net.crash("n2")
    c.run(5.0)
    final = c.services["n0"].session("g").view
    assert set(final.members) == {"n0", "n1"}
    assert c.services["n1"].session("g").view == final


def test_delivery_continues_across_churn():
    c = Cluster(4)
    config = GroupConfig(ordering=Ordering.ASYMMETRIC, **LIVELY_FAST)
    sessions = build_group(c, config)
    col0, col1 = Collector(sessions[0]), Collector(sessions[1])
    for i in range(5):
        sessions[0].send(f"a{i}")
    c.run(1.0)
    c.net.crash("n3")
    c.run(1.0)
    for i in range(5):
        sessions[1].send(f"b{i}")
    c.run(2.0)
    assert col0.deliveries == col1.deliveries
    assert len(col0.deliveries) == 10


def test_joiner_keeps_tickets_that_arrive_before_its_first_view():
    """The sequencer (n1) is not the coordinator (n0), so its tickets reach
    the joiner (n2) on another channel than the coordinator's ViewInstall.
    When that one frame is lost and repaired by the channel a millisecond
    late, the tickets arrive while n2 is still joining: they must be
    buffered like data and replayed after the install, not dropped."""
    from repro.groupcomm.messages import ChanData, ViewInstall

    c = Cluster(3, seed=3)
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        sequencer_hint="n1",
        suspicion_timeout=5.0,
        flush_timeout=2.0,
    )
    transmit = c.net.transmit
    dropped = []

    def drop_first_install_to_joiner(src, dst, service, payload, size, kind=None):
        if not dropped and (src, dst) == ("n0", "n2"):
            frame = payload.args[1]
            if isinstance(frame, ChanData) and isinstance(frame.inner, ViewInstall):
                dropped.append(frame.seq)
                dst = "unplugged"  # no such node: counted as sent, then dropped
        transmit(src, dst, service, payload, size, kind)

    with record_protocol() as record:
        creator = c.service(0).create_group("g", config)
        sessions = [creator, c.service(1).join_group("g", "n0")]
        c.run(1.0)
        c.net.transmit = drop_first_install_to_joiner

        def send_on_full_view(view, joined, left):
            if len(view.members) == 3:
                for i in range(3):
                    creator.send(f"m{i}")

        creator.on_view = send_on_full_view
        sessions.append(c.service(2).join_group("g", "n0"))
        delivered = {}
        for session in sessions:
            log = delivered[session.member_id] = []
            session.on_deliver = lambda _sender, payload, log=log: log.append(payload)
        c.run(3.0)
    assert dropped, "the scenario must actually lose the joiner's ViewInstall"
    assert delivered == {name: ["m0", "m1", "m2"] for name in ("n0", "n1", "n2")}
    assert check_invariants(record, total_order=True) == []


def test_a_view_install_from_a_dead_era_does_not_close_the_new_one():
    """A re-created group restarts view numbering under a new era.  An
    install still on its way from the dead era (view 4 of an island that
    excludes this member) outnumbers the new view 1, but it must not close
    the session: the era decides, not the view id."""
    from repro.groupcomm.messages import ViewInstall
    from repro.groupcomm.views import GroupView

    c = Cluster(3)
    config = GroupConfig()
    old_era = c.service(0).create_group("g", config).view.era
    c.service(0).drop_session("g")
    session = c.service(0).create_group("g", config)
    assert (session.view.view_id, session.view.members) == (1, ["n0"])
    assert session.view.era != old_era
    island = ViewInstall("g", GroupView("g", 4, ["n2"], era=old_era), 0, config, [], [])
    c.service(0)._route("n2", island)
    assert session.state != "closed"
    assert c.service(0).session("g") is session
    assert (session.view.view_id, session.view.members) == (1, ["n0"])


def _coordinating_a_flush_that_n2_cannot_answer():
    """n0 coordinates a flush that waits on the crashed n2: its flush timer
    is armed for ``flush_timeout``."""
    c = Cluster(4)
    sessions = build_group(c, GroupConfig())
    c.net.crash("n2")
    sessions[0].membership_step("n0", Suspect(["n3"]))
    c.run(0.01)
    assert sessions[0].state == "flushing" and sessions[0]._flush_timer.due is not None
    return c, sessions


def _flush_records_of(c, node):
    return [e for e in c.sim.obs.flight.events(node) if e[3] in ("flush_start", "flush", "view")]


def test_a_closed_coordinator_starts_no_flush_round_when_its_timer_would_fire():
    c, sessions = _coordinating_a_flush_that_n2_cannot_answer()
    n0, n1 = sessions[0], sessions[1]
    before = len(_flush_records_of(c, "n0")), len(_flush_records_of(c, "n1"))
    n0._close()
    assert n0._flush_timer.due is None
    c.run(1.0)
    # no attempt 2 from the closed n0, and so no FlushReq for n1 to answer
    assert (len(_flush_records_of(c, "n0")), len(_flush_records_of(c, "n1"))) == before


def test_a_crashed_coordinators_flush_timer_starts_no_round_and_installs_nothing():
    c, sessions = _coordinating_a_flush_that_n2_cannot_answer()
    n0 = sessions[0]
    before = len(_flush_records_of(c, "n0"))
    c.net.crash("n0")
    c.run(1.0)
    assert len(_flush_records_of(c, "n0")) == before
    assert n0.view.view_id == 3 and n0.view.members == ["n0", "n1", "n2", "n3"]


def test_a_suspicion_routed_from_outside_the_view_is_dropped():
    """A ``SuspectMsg`` counts only from a member of the receiver's view: a
    stale report from a node the group has left behind (one delivered after
    a partition heals) must not expel a healthy member."""
    c = Cluster(4)
    sessions = build_group(c, GroupConfig(), members=["n0", "n1", "n2"])
    assert sessions[0].view.view_id == 3
    c.service(0)._route("n3", SuspectMsg("g", "n1"))
    c.run(1.0)
    assert sessions[0].view.view_id == 3
    assert sessions[0].view.members == ["n0", "n1", "n2"]
    # the same report from a member still starts the flush that removes n1
    c.service(0)._route("n2", SuspectMsg("g", "n1"))
    c.run(1.0)
    assert sessions[0].view.members == ["n0", "n2"]


ASYMMETRIC_QUIET = dict(ordering=Ordering.ASYMMETRIC, suspicion_timeout=5.0, flush_timeout=2.0)


def _capture_flush_oks(c, oks):
    """Route ``c``'s traffic through a hook that records each FlushOk a
    member sends its coordinator; returns the hook's ``drop`` rule list:
    ``(src, dst, predicate on the frame's inner message)``."""
    from repro.groupcomm.messages import ChanData, FlushOk

    transmit = c.net.transmit
    rules = []

    def hook(src, dst, service, payload, size, kind=None):
        frame = payload.args[1] if len(payload.args) > 1 else None
        if isinstance(frame, ChanData):
            inner = frame.inner
            if isinstance(inner, FlushOk):
                oks.append(inner)
            for rule_src, rule_dst, matches in rules:
                if (src, dst) == (rule_src, rule_dst) and matches(inner):
                    dst = "unplugged"  # no such node: counted as sent, then dropped
        transmit(src, dst, service, payload, size, kind)

    c.net.transmit = hook
    return rules


def test_a_ticket_only_one_survivor_holds_reaches_every_survivor_through_the_flush():
    """A flush reports only the tickets above the sequencer's highest stable
    message, so the one ticket that matters here must still travel.

    n3's ``m`` is ticketed by the sequencer n0, but that ticket reaches n1
    only; n0's own ``s`` follows it, and n2's ``k`` never reaches n0, so it
    has no ticket at all.  n0 crashes before it repairs anything.  n1 has
    delivered ``m`` and ``s``; n2 and n3 must deliver them in the same
    order, and ``k`` after both, which they can only do if n1's FlushOk
    carries ``m``'s ticket.  The tickets of the warm-up messages, stable
    everywhere, travel in no FlushOk."""
    from repro.groupcomm.messages import DataMsg, FlushOk, TicketMsg

    c = Cluster(4)
    with record_protocol() as record:
        sessions = build_group(c, GroupConfig(**ASYMMETRIC_QUIET))
        n0, n1, n2, n3 = sessions
        delivered = {}
        for session in sessions:
            log = delivered[session.member_id] = []
            session.on_deliver = lambda _sender, payload, log=log: log.append(payload)
        n1.send("w1")
        c.run(0.005)
        n0.send("w0")
        c.run(0.2)
        assert n1._released["n0"] == 1  # the floor: w0's ticket
        warm_tickets = {n1.ordering.known_tickets[key] for key in (("n1", 1), ("n0", 1))}

        oks = []
        rules = _capture_flush_oks(c, oks)
        is_k = lambda msg: isinstance(msg, DataMsg) and msg.payload == "k"
        is_t = lambda msg: isinstance(msg, TicketMsg) and msg.target_sender == "n3"
        rules += [("n2", "n0", is_k), ("n0", "n2", is_t), ("n0", "n3", is_t)]
        step = n1.membership.step

        def own_flush_ok_too(peer, event):
            # n1's own FlushOk reaches its engine directly, not through the net
            if peer == "n1" and isinstance(event, FlushOk):
                oks.append(event)
            return step(peer, event)

        n1.membership.step = own_flush_ok_too
        n2.send("k")
        c.run(0.002)
        n3.send("m")
        c.run(0.002)
        n0.send("s")
        c.run(0.002)
        assert delivered["n1"][-2:] == ["m", "s"]
        assert "m" not in delivered["n2"] and "m" not in delivered["n3"]
        c.net.crash("n0")
        for session in sessions[1:]:
            session.membership_step(session.member_id, Suspect(["n0"]))
        c.run(1.0)

    assert [(s.view.view_id, s.view.members) for s in sessions[1:]] == [
        (4, ["n1", "n2", "n3"])
    ] * 3
    expected = ["w1", "w0", "m", "s", "k"]
    assert [delivered[name] for name in ("n1", "n2", "n3")] == [expected] * 3
    assert check_invariants(record, total_order=True) == []
    reported = {ok.sender: sorted(t for t, _s, _g in ok.tickets) for ok in oks}
    assert sorted(reported) == ["n1", "n2", "n3"]
    assert reported["n2"] == reported["n3"] == []
    assert len(reported["n1"]) == 2 and not warm_tickets & set(reported["n1"])


def _flush_ok_after(rounds: int):
    """An asymmetric group of three runs ``rounds`` rounds in which n1 and n2
    send and the sequencer n0 answers, as a request manager answers a
    call; then a join flushes it: n1's FlushOk."""
    c = Cluster(4)
    sessions = build_group(c, GroupConfig(**ASYMMETRIC_QUIET), members=["n0", "n1", "n2"])
    for _ in range(rounds):
        sessions[1].send("a")
        sessions[2].send("b")
        c.run(0.002)
        sessions[0].send("reply")
        c.run(0.002)
    c.run(0.2)
    oks = []
    _capture_flush_oks(c, oks)
    c.service(3).join_group("g", "n0")
    c.run(1.0)
    [ok] = [ok for ok in oks if ok.sender == "n1"]
    return ok


def test_a_flush_ok_does_not_grow_with_the_views_age():
    """Twice the traffic in the view, the same FlushOk: it carries the
    unstable window, not every ticket the view has seen.  (The floor is the
    sequencer's own stable message, so the sequencer here multicasts too.)"""
    from repro.orb.marshal import wire_size

    young, old = _flush_ok_after(20), _flush_ok_after(40)
    assert len(old.tickets) == len(young.tickets) <= 2
    assert wire_size(old) == wire_size(young)
