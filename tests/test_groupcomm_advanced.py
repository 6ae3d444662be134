"""Advanced group-communication tests: virtual synchrony, overlapping
groups, lossy links, partitions, and cross-group ordering (fig. 7)."""

import pytest

from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.net import FixedLatency, Topology
from tests.conftest import Cluster, Collector
from tests.invariants import check_cross_group_order, record_protocol
from tests.test_groupcomm_basic import build_group


LIVELY_FAST = dict(
    liveliness=Liveliness.LIVELY, silence_period=20e-3, suspicion_timeout=100e-3
)


# ---------------------------------------------------------------------------
# virtual synchrony
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("ordering", [Ordering.SYMMETRIC, Ordering.ASYMMETRIC])
def test_survivors_deliver_same_set_after_crash(ordering):
    """Messages in flight at a crash are delivered atomically: every
    survivor delivers exactly the same sequence before the new view."""
    c = Cluster(4)
    config = GroupConfig(ordering=ordering, **LIVELY_FAST)
    sessions = build_group(c, config)
    collectors = [Collector(s) for s in sessions]
    # burst of traffic from everyone, then n3 dies mid-stream
    for i in range(3):
        for s in sessions:
            s.send(f"pre-{s.member_id}-{i}")
    c.run(5e-4)  # messages still propagating
    c.net.crash("n3")
    c.run(2.0)
    survivors = collectors[:3]
    views = [s.view for s in sessions[:3]]
    assert all(set(v.members) == {"n0", "n1", "n2"} for v in views)
    histories = [col.deliveries for col in survivors]
    assert histories[1] == histories[0]
    assert histories[2] == histories[0]


@pytest.mark.parametrize("ordering", [Ordering.CAUSAL, Ordering.FIFO])
def test_survivors_close_a_view_consistently_under_partial_order(ordering):
    """Causal and FIFO groups promise no common sequence, so the view change
    has to close the old view itself (``finalize``): every survivor ends it
    with the same *set* of messages — the crashed member's included, though
    it reached only some of them directly — each sender's in sending order,
    and (causal) an answer never before the message it answers."""
    c = Cluster(4)
    config = GroupConfig(ordering=ordering, **LIVELY_FAST)
    sessions = build_group(c, config)
    collectors = [Collector(s) for s in sessions]

    def answer(sender, payload):  # n1 reacts to n3's first message
        collectors[1].on_deliver(sender, payload)
        if payload == "pre-n3-0":
            sessions[1].send("re-n3-0")

    sessions[1].on_deliver = answer
    for i in range(3):
        for s in sessions:
            s.send(f"pre-{s.member_id}-{i}")
    c.run(4e-4)
    c.net.crash("n3")  # mid-burst: the rest of its sends die in its CPU queue
    c.run(0.05)  # everything in flight has landed; no view change yet
    got = [{p for p in col.payloads if p.startswith("pre-n3")} for col in collectors[:3]]
    assert len({frozenset(g) for g in got}) > 1, "nothing left for the view change to close"
    c.run(2.0)
    assert all(set(s.view.members) == {"n0", "n1", "n2"} for s in sessions[:3])
    histories = [col.payloads for col in collectors[:3]]
    assert set(histories[0]) == set(histories[1]) == set(histories[2])
    assert all(len(h) == len(set(h)) for h in histories)  # nothing delivered twice
    for history in histories:
        for sender in ("n0", "n1", "n2", "n3"):
            own = [p for p in history if p.startswith(f"pre-{sender}-")]
            assert own == sorted(own), (sender, history)
        if ordering == Ordering.CAUSAL and "re-n3-0" in history:
            assert history.index("pre-n3-0") < history.index("re-n3-0")


def test_view_change_keeps_total_order_across_views():
    c = Cluster(3)
    config = GroupConfig(ordering=Ordering.SYMMETRIC, **LIVELY_FAST)
    sessions = build_group(c, config)
    collectors = [Collector(s) for s in sessions]
    for i in range(3):
        sessions[0].send(f"a{i}")
    c.run(0.5)
    c.net.crash("n2")
    c.run(2.0)
    for i in range(3):
        sessions[1].send(f"b{i}")
    c.run(0.5)
    h0 = [p for _s, p in collectors[0].deliveries]
    h1 = [p for _s, p in collectors[1].deliveries]
    assert h0 == h1
    assert h0[-3:] == ["b0", "b1", "b2"]


def test_join_during_traffic_preserves_agreement():
    c = Cluster(3)
    config = GroupConfig(ordering=Ordering.SYMMETRIC)
    sessions = build_group(c, config, members=["n0", "n1"])
    collectors = [Collector(s) for s in sessions]
    for i in range(5):
        sessions[0].send(f"m{i}")
    late = c.services["n2"].join_group("g", "n0")
    late_col = Collector(late)
    c.run(1.0)
    for i in range(5):
        sessions[1].send(f"post{i}")
    c.run(1.0)
    # existing members agree on the full history
    assert collectors[0].deliveries == collectors[1].deliveries
    # the joiner sees exactly the post-join suffix, in the same order
    post = [d for d in collectors[0].deliveries if d in late_col.deliveries]
    assert late_col.deliveries == post
    assert len(late_col.deliveries) >= 5


# ---------------------------------------------------------------------------
# overlapping groups
# ---------------------------------------------------------------------------
def test_member_of_two_groups_uses_one_clock():
    c = Cluster(3)
    svc = c.service(0)
    g1 = svc.create_group("g1", GroupConfig())
    g2 = svc.create_group("g2", GroupConfig())
    c.services["n1"].join_group("g1", "n0")
    c.services["n2"].join_group("g2", "n0")
    c.run(1.0)
    g1.send("in-g1")
    g2.send("in-g2")
    c.run(0.5)
    # one shared clock: both sessions observe globally increasing stamps
    assert svc.clock.value >= 2


@pytest.mark.parametrize("ordering", [Ordering.SYMMETRIC, Ordering.ASYMMETRIC])
def test_multigroup_member_delivers_consistent_cross_group_order(ordering):
    """Two members share two groups; their interleaved delivery across the
    two groups must agree (the §2.1 multi-group total order property)."""
    c = Cluster(2)
    cfg = lambda: GroupConfig(ordering=ordering, sequencer_hint="n0")
    a1 = c.service(0).create_group("ga", cfg())
    b1 = c.service(0).create_group("gb", cfg())
    a2 = c.services["n1"].join_group("ga", "n0")
    b2 = c.services["n1"].join_group("gb", "n0")
    c.run(1.0)
    log0, log1 = [], []
    for session, log, tag in ((a1, log0, "ga"), (b1, log0, "gb")):
        session.on_deliver = lambda s, p, log=log, tag=tag: log.append((tag, p))
    for session, log, tag in ((a2, log1, "ga"), (b2, log1, "gb")):
        session.on_deliver = lambda s, p, log=log, tag=tag: log.append((tag, p))
    for i in range(4):
        a1.send(f"a{i}")
        b1.send(f"b{i}")
        a2.send(f"c{i}")
        b2.send(f"d{i}")
    c.run(2.0)
    assert len(log0) == 16
    assert log0 == log1


#: the cross-group reproducer's one-way delays, in ms (every other pair: 60)
CROSS_LINKS = {
    ("n0", "n1"): 10, ("n0", "n2"): 1, ("n1", "n2"): 30,
    ("n1", "n3"): 1, ("n0", "n3"): 50, ("n2", "n4"): 1,
}
CROSS_KNOWN_FAILURE = "ROADMAP item 1: multi-group total order across partial overlaps"


def _asymmetric(sequencer):
    return GroupConfig(ordering=Ordering.ASYMMETRIC, sequencer_hint=sequencer)


@pytest.mark.parametrize(
    "config_a, config_b, k",
    [
        pytest.param(
            GroupConfig(), GroupConfig(), 5, id="symmetric-event-driven",
            marks=pytest.mark.xfail(strict=True, reason=CROSS_KNOWN_FAILURE),
        ),
        pytest.param(
            _asymmetric("n0"), _asymmetric("n1"), 0, id="asymmetric-two-sequencers",
            marks=pytest.mark.xfail(strict=True, reason=CROSS_KNOWN_FAILURE),
        ),
        pytest.param(_asymmetric("n0"), _asymmetric("n0"), 0, id="asymmetric-one-sequencer"),
    ],
)
def test_partially_overlapping_groups_deliver_in_one_cross_group_order(config_a, config_b, k):
    """§2.1 across partial overlaps: X = n0 and Y = n1 are in groups A and
    B; Z = n2 is in A only, W = n3 in B only, and V = n4 shares group C
    with Z.  Z multicasts ``k`` messages in C (its one NSO clock moves
    ahead of W's), then Z sends mA in A and W sends mB in B at the same
    instant: X and Y must deliver the two in the same order."""
    topology = Topology()
    names = [f"n{i}" for i in range(5)]
    for name in names:
        topology.add_site(name, FixedLatency(Topology.LAN_LATENCY))
    for (a, b), ms in CROSS_LINKS.items():
        topology.connect(a, b, FixedLatency(ms * 1e-3))
    topology.set_default_wan(FixedLatency(60e-3))
    with record_protocol() as record:
        c = Cluster(5, topology=topology, sites=names)
        a = {"n0": c.services["n0"].create_group("A", config_a)}
        b = {"n0": c.services["n0"].create_group("B", config_b)}
        z_in_c = c.services["n2"].create_group("C", GroupConfig())
        for group, sessions, joiners in (("A", a, ("n1", "n2")), ("B", b, ("n1", "n3"))):
            for member in joiners:
                sessions[member] = c.services[member].join_group(group, "n0")
                c.run(1.0)
        c.services["n4"].join_group("C", "n2")
        c.run(1.0)
        delivered = {"n0": [], "n1": []}
        for sessions in (a, b):
            for member, log in delivered.items():
                sessions[member].on_deliver = lambda sender, p, log=log: log.append(p)
        for i in range(k):
            z_in_c.send(f"c{i}")
        c.run(0.5)
        a["n2"].send("mA")
        b["n3"].send("mB")
        c.run(3.0)
    assert sorted(delivered["n0"]) == sorted(delivered["n1"]) == ["mA", "mB"]
    assert check_cross_group_order(record, ["A", "B"]) == []


def test_fig7_causality_between_related_requests():
    """Fig. 7: B sends m1 to gy, then m2 in gx; A, on delivering m2, sends
    m3 to gy.  gy's member S must deliver m1 before m3."""
    c = Cluster(3)  # n0=A, n1=B, n2=S
    sym = lambda: GroupConfig(ordering=Ordering.SYMMETRIC)
    # gx = {A, B}; g1 = {B, S}; g2 = {A, S}  (open client/server groups)
    gx_a = c.service(0).create_group("gx", sym())
    gx_b = c.services["n1"].join_group("gx", "n0")
    g1_s = c.services["n2"].create_group("g1", sym())
    g1_b = c.services["n1"].join_group("g1", "n2")
    g2_s = c.services["n2"].create_group("g2", sym())
    g2_a = c.services["n0"].join_group("g2", "n2")
    c.run(1.0)

    served = []
    g1_s.on_deliver = lambda sender, p: served.append(p)
    g2_s.on_deliver = lambda sender, p: served.append(p)

    def a_on_gx(sender, payload):
        if payload == "m2":
            g2_a.send("m3")

    gx_a.on_deliver = a_on_gx
    g1_b.send("m1")
    gx_b.send("m2")
    c.run(2.0)
    assert "m1" in served and "m3" in served
    assert served.index("m1") < served.index("m3")


# ---------------------------------------------------------------------------
# lossy links and partitions
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("ordering", [Ordering.SYMMETRIC, Ordering.ASYMMETRIC])
def test_total_order_survives_message_loss(ordering):
    topo = Topology()
    topo.add_site("lan", FixedLatency(200e-6), loss=0.08)
    c = Cluster(3, topology=topo, sites=["lan"] * 3, seed=11)
    config = GroupConfig(ordering=ordering, suspicion_timeout=2.0, flush_timeout=1.0)
    sessions = build_group(c, config)
    collectors = [Collector(s) for s in sessions]
    for i in range(10):
        for s in sessions:
            s.send(f"{s.member_id}-{i}")
    c.run(5.0)
    histories = [col.deliveries for col in collectors]
    assert len(histories[0]) == 30
    assert histories[1] == histories[0]
    assert histories[2] == histories[0]
    assert all(s.view.view_id == sessions[0].view.view_id for s in sessions)


def test_partition_forms_independent_views():
    c = Cluster(4)
    config = GroupConfig(**LIVELY_FAST)
    sessions = build_group(c, config)
    c.net.partition({"n0", "n1"}, {"n2", "n3"})
    c.run(3.0)
    side_a = {tuple(s.view.members) for s in sessions[:2]}
    side_b = {tuple(s.view.members) for s in sessions[2:]}
    assert side_a == {("n0", "n1")}
    assert side_b == {("n2", "n3")}


def test_minority_side_can_detect_lack_of_majority():
    c = Cluster(3)
    config = GroupConfig(**LIVELY_FAST)
    sessions = build_group(c, config)
    original_size = len(sessions[0].view)
    c.net.partition({"n0", "n1"}, {"n2"})
    c.run(3.0)
    majority_view = sessions[0].view
    minority_view = sessions[2].view
    assert len(majority_view) > original_size // 2
    assert len(minority_view) <= original_size // 2


def test_traffic_continues_after_partition_heals_via_rejoin():
    c = Cluster(3)
    config = GroupConfig(**LIVELY_FAST)
    sessions = build_group(c, config)
    c.net.partition({"n0", "n1"}, {"n2"})
    c.run(3.0)
    c.net.heal()
    # application-level rejoin, as in the paper (rebinding is app policy)
    c.services["n2"].drop_session("g")
    rejoined = c.services["n2"].join_group("g", "n0")
    c.run(2.0)
    assert set(sessions[0].view.members) == {"n0", "n1", "n2"}
    col = Collector(rejoined)
    sessions[0].send("hello-again")
    c.run(0.5)
    assert ("n0", "hello-again") in col.deliveries
