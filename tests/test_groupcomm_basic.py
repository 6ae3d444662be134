"""Group communication integration tests: membership, delivery, ordering."""

import pytest

import repro.groupcomm.session as session_module
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from tests.conftest import Cluster, Collector


def build_group(cluster, config, group="g", members=None):
    """Create the group at member 0 and join the rest; returns sessions."""
    members = members if members is not None else cluster.names
    creator = cluster.services[members[0]]
    sessions = [creator.create_group(group, config)]
    for name in members[1:]:
        sessions.append(cluster.services[name].join_group(group, members[0]))
    cluster.run(1.0)
    return sessions


@pytest.mark.parametrize("ordering", Ordering.ALL)
def test_singleton_group_delivers_to_self(ordering):
    c = Cluster(1)
    session = c.service(0).create_group("g", GroupConfig(ordering=ordering))
    col = Collector(session)
    session.send("hello")
    c.run(0.5)
    assert col.payloads == ["hello"]
    assert session.stats.sent == 1
    assert session.stats.delivered == 1


def test_join_installs_shared_view():
    c = Cluster(3)
    sessions = build_group(c, GroupConfig())
    views = [s.view for s in sessions]
    assert all(v is not None for v in views)
    assert len({(v.view_id, tuple(v.members)) for v in views}) == 1
    assert set(views[0].members) == {"n0", "n1", "n2"}
    assert all(s.joined.done for s in sessions)
    assert all(s.state == "active" for s in sessions)


def test_join_future_resolves_with_view():
    c = Cluster(2)
    c.service(0).create_group("g", GroupConfig())
    joiner = c.service(1).join_group("g", "n0")
    c.run(1.0)
    view = joiner.joined.result()
    assert "n1" in view.members


@pytest.mark.parametrize("ordering", Ordering.ALL)
def test_multicast_reaches_every_member(ordering):
    c = Cluster(3)
    sessions = build_group(c, GroupConfig(ordering=ordering))
    collectors = [Collector(s) for s in sessions]
    sessions[0].send({"k": 1})
    sessions[1].send({"k": 2})
    c.run(1.0)
    for col in collectors:
        assert sorted(p["k"] for p in col.payloads) == [1, 2]


@pytest.mark.parametrize("ordering", [Ordering.SYMMETRIC, Ordering.ASYMMETRIC])
def test_total_order_identical_at_all_members(ordering):
    c = Cluster(4)
    sessions = build_group(c, GroupConfig(ordering=ordering))
    collectors = [Collector(s) for s in sessions]
    # all members multicast concurrently, several rounds
    for round_no in range(5):
        for i, session in enumerate(sessions):
            session.send(f"m{round_no}-{i}")
    c.run(2.0)
    histories = [col.deliveries for col in collectors]
    assert len(histories[0]) == 20
    for other in histories[1:]:
        assert other == histories[0]


def test_symmetric_idle_members_emit_nulls():
    c = Cluster(3)
    sessions = build_group(c, GroupConfig(ordering=Ordering.SYMMETRIC))
    sessions[0].send("x")
    c.run(1.0)
    # the two idle members must have answered with time-silence NULLs
    assert sessions[1].stats.nulls_sent >= 1
    assert sessions[2].stats.nulls_sent >= 1


def test_asymmetric_delivery_does_not_wait_for_nulls(monkeypatch):
    monkeypatch.setattr(session_module, "NULL_DELAY", 5e-3)
    c = Cluster(3)
    sessions = build_group(c, GroupConfig(ordering=Ordering.ASYMMETRIC))
    collectors = [Collector(s) for s in sessions]
    sessions[1].send("x")
    # run strictly less than NULL_DELAY: delivery must not depend on NULLs
    c.run(3e-3)
    assert all(col.payloads == ["x"] for col in collectors)
    # afterwards receivers owe a stability ack-NULL, then the group quiesces
    c.run(0.5)
    assert 1 <= sessions[0].stats.nulls_sent <= 2
    assert 1 <= sessions[2].stats.nulls_sent <= 2
    assert all(not s.has_outstanding() for s in sessions)


def test_causal_order_respected():
    c = Cluster(3)
    sessions = build_group(c, GroupConfig(ordering=Ordering.CAUSAL))
    collectors = [Collector(s) for s in sessions]

    # n1 replies to n0's message as soon as it sees it
    def reply(sender, payload):
        collectors[1].on_deliver(sender, payload)
        if payload == "question":
            sessions[1].send("answer")

    sessions[1].on_deliver = reply
    sessions[0].send("question")
    c.run(1.0)
    for col in (collectors[0], collectors[2]):
        payloads = col.payloads
        assert payloads.index("question") < payloads.index("answer")


def test_fifo_order_per_sender():
    c = Cluster(2)
    sessions = build_group(c, GroupConfig(ordering=Ordering.FIFO))
    col = Collector(sessions[1])
    for i in range(20):
        sessions[0].send(i)
    c.run(1.0)
    assert col.payloads == list(range(20))


def test_leave_reforms_group():
    c = Cluster(3)
    sessions = build_group(c, GroupConfig())
    col0 = Collector(sessions[0])
    left = sessions[2].leave()
    c.run(1.0)
    assert left.done
    assert sessions[2].state == "closed"
    assert set(sessions[0].view.members) == {"n0", "n1"}
    assert sessions[0].view.view_id == sessions[1].view.view_id
    # view callback fired with the departure
    assert any("n2" in left_list for _v, _j, left_list in col0.views)


# ---------------------------------------------------------------------------
# the kept sequencer: recomputed at every config or view change only
# ---------------------------------------------------------------------------
def formula_sequencer(session):
    """The sequencer by its definition: the install's hint if the view
    holds it, else rank 0 (no view: none)."""
    hint = session.config.sequencer_hint
    if hint and session.view is not None and hint in session.view.members:
        return hint
    return session.view.members[0] if session.view else ""


def watch_sequencer(session, seen):
    """Check ``session.sequencer`` against its definition after every view
    install, recording (member, view id, sequencer) in ``seen``."""
    assert session.sequencer == formula_sequencer(session)

    def on_view(view, joined, left):
        assert session.sequencer == formula_sequencer(session)
        seen.append((session.member_id, view.view_id, session.sequencer))

    session.on_view = on_view


def lively_asymmetric(**options):
    return GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        liveliness=Liveliness.LIVELY,
        silence_period=20e-3,
        suspicion_timeout=100e-3,
        **options,
    )


def test_the_kept_sequencer_follows_rank_zero_when_it_crashes():
    c = Cluster(3)
    seen = []
    sessions = [c.service(0).create_group("g", lively_asymmetric())]
    watch_sequencer(sessions[0], seen)
    for name in c.names[1:]:
        sessions.append(c.services[name].join_group("g", "n0"))
        watch_sequencer(sessions[-1], seen)
    c.run(1.0)
    assert {s.sequencer for s in sessions} == {"n0"}
    c.net.crash("n0")
    c.run(2.0)
    assert [s.sequencer for s in sessions[1:]] == ["n1", "n1"]
    assert ("n2", sessions[2].view.view_id, "n1") in seen


def test_a_restarted_hinted_member_rejoins_as_a_backup():
    c = Cluster(3)
    seen = []
    sessions = [c.service(0).create_group("g", lively_asymmetric(sequencer_hint="n0"))]
    for name in c.names[1:]:
        sessions.append(c.services[name].join_group("g", "n0"))
    for session in sessions:
        watch_sequencer(session, seen)
    c.run(1.0)
    assert {s.sequencer for s in sessions} == {"n0"}
    c.net.crash("n0")
    c.run(2.0)
    # the install that removed n0 dropped the hint: rank 0 sequences for good
    assert [s.sequencer for s in sessions[1:]] == ["n1", "n1"]
    assert [s.config.sequencer_hint for s in sessions[1:]] == ["", ""]
    c.net.recover("n0")
    sessions[0]._close()
    c.service(0).drop_session("g")
    sessions[0] = c.service(0).join_group("g", "n1")
    watch_sequencer(sessions[0], seen)
    c.run(2.0)
    assert [s.view.members for s in sessions] == [["n1", "n2", "n0"]] * 3
    assert [s.sequencer for s in sessions] == ["n1", "n1", "n1"]
    assert ("n0", sessions[0].view.view_id, "n1") in seen


def test_the_kept_sequencer_moves_to_a_hinted_member_that_joins_late():
    c = Cluster(3)
    seen = []
    config = lively_asymmetric(sequencer_hint="n2")
    sessions = [c.service(0).create_group("g", config)]
    watch_sequencer(sessions[0], seen)
    sessions.append(c.services["n1"].join_group("g", "n0"))
    watch_sequencer(sessions[1], seen)
    c.run(1.0)
    # the hinted member is not in the view yet: rank 0 sequences
    assert [s.sequencer for s in sessions] == ["n0", "n0"]
    sessions.append(c.services["n2"].join_group("g", "n0"))
    watch_sequencer(sessions[2], seen)
    c.run(1.0)
    assert [s.sequencer for s in sessions] == ["n2", "n2", "n2"]
    assert {sequencer for _m, _v, sequencer in seen[-3:]} == {"n2"}


def test_a_joiner_keeps_the_sequencer_the_creators_config_hints():
    c = Cluster(2)
    seen = []
    creator = c.service(0).create_group("g", lively_asymmetric(sequencer_hint="n1"))
    watch_sequencer(creator, seen)
    # alone, the creator sequences: the hinted member is not a member yet
    assert creator.sequencer == "n0"
    joiner = c.services["n1"].join_group("g", "n0")
    watch_sequencer(joiner, seen)
    assert joiner.sequencer == "" and joiner.config.sequencer_hint == ""
    c.run(1.0)
    # the joiner's first install brought the creator's config, hint included
    assert joiner.config.sequencer_hint == "n1"
    assert (joiner.sequencer, creator.sequencer) == ("n1", "n1")
    assert ("n1", joiner.view.view_id, "n1") in seen


def test_crash_detected_in_lively_group():
    c = Cluster(3)
    config = GroupConfig(
        ordering=Ordering.SYMMETRIC,
        liveliness=Liveliness.LIVELY,
        silence_period=20e-3,
        suspicion_timeout=100e-3,
    )
    sessions = build_group(c, config)
    c.net.crash("n2")
    c.run(2.0)
    assert set(sessions[0].view.members) == {"n0", "n1"}
    assert set(sessions[1].view.members) == {"n0", "n1"}
    assert sessions[0].view.view_id == sessions[1].view.view_id


def test_coordinator_crash_next_member_takes_over():
    c = Cluster(3)
    config = GroupConfig(
        liveliness=Liveliness.LIVELY,
        silence_period=20e-3,
        suspicion_timeout=100e-3,
    )
    sessions = build_group(c, config)
    assert sessions[0].view.coordinator == "n0"
    c.net.crash("n0")
    c.run(2.0)
    assert set(sessions[1].view.members) == {"n1", "n2"}
    assert sessions[1].view.coordinator == "n1"
    assert sessions[1].view == sessions[2].view


def test_event_driven_group_tolerates_idle_silence():
    c = Cluster(3)
    config = GroupConfig(
        liveliness=Liveliness.EVENT_DRIVEN,
        suspicion_timeout=50e-3,
    )
    sessions = build_group(c, config)
    # nothing outstanding: long silence must NOT trigger membership changes
    c.run(2.0)
    assert all(len(s.view.members) == 3 for s in sessions)
    assert all(s.view.view_id == sessions[0].view.view_id for s in sessions)


def test_sends_while_joining_are_queued_and_delivered():
    c = Cluster(2)
    c.service(0).create_group("g", GroupConfig())
    joiner = c.service(1).join_group("g", "n0")
    col = Collector(c.service(0).session("g"))
    joiner.send("early")  # queued: still joining
    c.run(1.0)
    assert ("n1", "early") in col.deliveries


def test_group_details_reports_view():
    c = Cluster(2)
    sessions = build_group(c, GroupConfig())
    details = sessions[0].group_details()
    assert details is not None
    assert set(details.members) == {"n0", "n1"}


def test_cannot_join_twice():
    from repro.errors import GroupError

    c = Cluster(2)
    c.service(0).create_group("g", GroupConfig())
    c.service(1).join_group("g", "n0")
    c.run(0.5)
    with pytest.raises(GroupError):
        c.service(1).join_group("g", "n0")
    with pytest.raises(GroupError):
        c.service(0).create_group("g", GroupConfig())


def test_send_after_close_raises():
    from repro.errors import NotMember

    c = Cluster(2)
    sessions = build_group(c, GroupConfig())
    sessions[1].leave()
    c.run(1.0)
    with pytest.raises(NotMember):
        sessions[1].send("too late")


def test_sequencer_hint_selects_sequencer():
    c = Cluster(3)
    config = GroupConfig(ordering=Ordering.ASYMMETRIC, sequencer_hint="n1")
    sessions = build_group(c, config)
    assert all(s.sequencer == "n1" for s in sessions)
