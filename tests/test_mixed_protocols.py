"""Mixed-protocol and multi-group scenarios the paper calls out explicitly.

§2.1: "Both symmetric and asymmetric total order protocols are supported,
permitting a member to use say symmetric version in one group and
asymmetric version in another group simultaneously."
"""

from functools import partial

import pytest

from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.groupcomm.merger import SharedClockMerger, TicketMerger
from repro.groupcomm.session import GroupSession
from repro.net import FixedLatency, Topology
from tests.conftest import Cluster, Collector
from tests.test_groupcomm_basic import build_group


def symmetric_and_asymmetric_on_one_nso():
    """Every member holds a symmetric and an asymmetric group."""
    c = Cluster(3)
    sym_sessions = build_group(c, GroupConfig(ordering=Ordering.SYMMETRIC), group="gsym")
    asym_sessions = build_group(
        c, GroupConfig(ordering=Ordering.ASYMMETRIC), group="gasym"
    )
    sym_cols = [Collector(s) for s in sym_sessions]
    asym_cols = [Collector(s) for s in asym_sessions]
    for i in range(5):
        sym_sessions[i % 3].send(f"sym-{i}")
        asym_sessions[(i + 1) % 3].send(f"asym-{i}")
    c.run(2.0)
    return c, sym_cols, asym_cols


def ten_overlapping_groups_on_one_nso():
    """One hub member joins ten groups, alternately symmetric and
    asymmetric, each created by one of five peers."""
    c = Cluster(6)
    hub = c.service(0)
    sessions = {}
    collectors = {}
    for g in range(10):
        name = f"g{g}"
        ordering = Ordering.SYMMETRIC if g % 2 == 0 else Ordering.ASYMMETRIC
        peer = c.names[1 + g % 5]
        sessions[name] = c.services[peer].create_group(
            name, GroupConfig(ordering=ordering)
        )
        hub_session = hub.join_group(name, peer)
        collectors[name] = Collector(hub_session)
        c.run(0.3)
    c.run(1.0)
    for name, session in sessions.items():
        session.send(f"hello-{name}")
    c.run(2.0)
    return c, collectors


def test_member_runs_symmetric_and_asymmetric_groups_simultaneously():
    _c, sym_cols, asym_cols = symmetric_and_asymmetric_on_one_nso()
    assert all(len(col.deliveries) == 5 for col in sym_cols + asym_cols)
    assert all(col.deliveries == sym_cols[0].deliveries for col in sym_cols)
    assert all(col.deliveries == asym_cols[0].deliveries for col in asym_cols)


def test_ten_overlapping_groups_on_one_nso():
    """'There is no limit to the number of client/server groups a client may
    form' (§2.1): one hub member participates in many groups at once."""
    _c, collectors = ten_overlapping_groups_on_one_nso()
    for name, col in collectors.items():
        assert col.payloads == [f"hello-{name}"], name


def test_causal_group_alongside_total_groups():
    c = Cluster(2)
    causal = build_group(c, GroupConfig(ordering=Ordering.CAUSAL), group="gc")
    total = build_group(c, GroupConfig(ordering=Ordering.SYMMETRIC), group="gt")
    col_c = Collector(causal[1])
    col_t = Collector(total[1])
    causal[0].send("c1")
    total[0].send("t1")
    causal[0].send("c2")
    c.run(1.0)
    assert col_c.payloads == ["c1", "c2"]
    assert col_t.payloads == ["t1"]


def test_open_and_closed_bindings_used_simultaneously():
    """§2.1: 'the open and closed group approaches may be used
    simultaneously by both clients and members of a server group.'"""
    from repro.core import BindingStyle, Mode
    from repro.sim import all_of, spawn
    from tests.core_helpers import AppCluster, Counter

    c = AppCluster(servers=3, clients=2)
    servers = c.serve_all("svc", Counter)
    closed = c.client(0).bind("svc", style=BindingStyle.CLOSED)
    open_ = c.client(1).bind("svc", style=BindingStyle.OPEN)
    c.run(1.0)
    assert closed.ready.done and open_.ready.done

    def workload():
        futures = []
        for _ in range(5):
            futures.append(closed.invoke("incr", (1,), mode=Mode.ALL))
            futures.append(open_.invoke("incr", (1,), mode=Mode.ALL))
        yield all_of(futures)

    proc = spawn(c.sim, workload())
    c.run(5.0)
    assert proc.done
    # both paths ordered through the same server group: replicas agree
    assert [s.servant.value for s in servers] == [10, 10, 10]


# ---------------------------------------------------------------------------
# the delivery fast paths: a lone symmetric session skips the cross-group
# heap, and the ticket merger releases only the queue an event can unblock
# ---------------------------------------------------------------------------
def lossy_peer_group_with_a_crash(ordering):
    """Four peers multicast over a lossy LAN; one crashes mid-traffic, so
    the survivors change views (and purge the ticket merger)."""
    topo = Topology()
    topo.add_site("lan", FixedLatency(200e-6), loss=0.05)
    c = Cluster(4, topology=topo, sites=["lan"] * 4, seed=5)
    config = GroupConfig(ordering=ordering, flush_timeout=1.0)
    sessions = build_group(c, config)
    collectors = [Collector(s) for s in sessions]
    for tick in range(40):
        for session in sessions:
            c.sim.schedule(tick * 5e-3, session.send, f"{session.member_id}-{tick}")
    c.sim.schedule(0.1, c.net.crash, "n3")
    c.run(5.0)
    assert all(s.view.members == ["n0", "n1", "n2"] for s in sessions[:3])
    assert collectors[1].deliveries == collectors[0].deliveries
    return c, collectors


def delivered(monkeypatch, deployment):
    """Run ``deployment``; return every upcall per (member, group) with its
    virtual time, and the kernel's event count."""
    log = {}
    upcall = GroupSession._upcall

    def spy(self, span, sender, payload, *rest):
        log.setdefault((self.member_id, self.group), []).append(
            (self.sim.now, sender, payload)
        )
        upcall(self, span, sender, payload, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(GroupSession, "_upcall", spy)
        c = deployment()[0]
    return log, c.sim.events_processed


@pytest.mark.parametrize(
    "deployment",
    [
        symmetric_and_asymmetric_on_one_nso,
        ten_overlapping_groups_on_one_nso,
        partial(lossy_peer_group_with_a_crash, Ordering.SYMMETRIC),
        partial(lossy_peer_group_with_a_crash, Ordering.ASYMMETRIC),
    ],
    ids=["sym+asym", "ten-overlapping", "lossy-crash-sym", "lossy-crash-asym"],
)
def test_fast_paths_deliver_what_the_full_paths_deliver(monkeypatch, deployment):
    fast = delivered(monkeypatch, deployment)
    with monkeypatch.context() as full_paths:
        # the clock merger never reports a lone session, and the ticket
        # merger sweeps every queue on every event
        full_paths.setattr(
            SharedClockMerger,
            "lone",
            property(lambda self: None, lambda self, v: None),
            raising=False,
        )
        full_paths.setattr(
            TicketMerger,
            "swept",
            property(lambda self: False, lambda self, v: None),
            raising=False,
        )
        full = delivered(monkeypatch, deployment)
    assert fast[0] and fast == full
