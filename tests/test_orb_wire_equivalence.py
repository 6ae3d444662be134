"""The by-reference transport, held to the bytes it replaced.

The ORB hands the simulated network the ``Request``/``Reply`` struct itself
and the size ``wire_size`` says it would occupy; nothing is encoded.  Real
bytes gave one property for free — no mutable state shared between simulated
address spaces — which is now a contract (a value handed to ``invoke`` is the
wire's; receivers treat what arrives as read-only) and checked here: every
deployment below runs once by reference and once under ``ORB.verify_wire``
(the parent's path: encode at send, ``len(data) == wire_size(message)``, carry
bytes, decode on arrival), and the two runs must agree to the last digit.  A
sender that mutates a message in flight, or a receiver that writes into one
it shares with its peers, makes them differ — the last test proves that.
"""

from pathlib import Path

import pytest

from repro.core import BindingStyle, Mode
from repro.core.messages import InvokeMsg, ReplyMsg, ReplySet
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.groupcomm.messages import DataMsg
from repro.net import Network
from repro.orb import ORB, MarshalError
from repro.recovery.convergence import state_digest
from repro.scenario import run_scenario
from repro.sim import run_process
from tests.conftest import Cluster, Collector
from tests.core_helpers import AppCluster, Counter, bind_scheme
from tests.invariants import check_invariants
from tests.test_groupcomm_basic import build_group
from tests.test_invariant_sweep import join_under_loss
from tests.test_orb import Echo, setup_pair

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


@pytest.fixture
def in_both_modes(monkeypatch):
    """``run(deployment)`` -> (outcome by reference, outcome over real bytes,
    wire), where ``wire`` counts, in the second run, the messages that passed
    the encode-length check and the hops the network carried — all bytes."""

    def run(deployment):
        by_reference = deployment()
        checked, carried = [], []
        encoded, transmit = ORB._encoded, Network.transmit

        def counting_encoded(message, size):
            data = encoded(message, size)  # raises unless len(data) == size
            checked.append(size)
            return data

        def counting_transmit(self, src, dst, service, payload, size, kind=None):
            carried.append(type(payload))
            transmit(self, src, dst, service, payload, size, kind)

        with monkeypatch.context() as patch:
            patch.setattr(ORB, "verify_wire", True)
            patch.setattr(ORB, "_encoded", staticmethod(counting_encoded))
            patch.setattr(Network, "transmit", counting_transmit)
            over_bytes = deployment()
        assert set(carried) == {bytes}
        return by_reference, over_bytes, {"checked": len(checked), "carried": len(carried)}

    return run


def kernel_outcome(sim):
    """What any deployment must reproduce: the event count and every counter."""
    return {
        "events": sim.events_processed,
        "now": sim.now,
        "counters": sim.obs.metrics_snapshot()["counters"],
    }


class Appender:
    """The bug class marshalling used to make impossible: a servant that
    writes into an argument it received."""

    def push(self, items):
        items.append(len(items))
        return len(items)


def closed_wait_for_all(servant_factory, operation, make_args, calls=12):
    """3 replicas on a LAN, two closed-group clients, wait-for-all."""

    def deployment():
        c = AppCluster(servers=3, clients=2, seed=5)
        servers = c.serve_all("svc", servant_factory)
        bindings = [bind_scheme(c, client=i, style=BindingStyle.CLOSED) for i in range(2)]
        replies, latencies = [], []

        def client(binding, base):
            for i in range(calls):
                start = c.sim.now
                result = yield binding.invoke(operation, make_args(base + i), mode=Mode.ALL)
                replies.append(sorted(result.by_member().items()))
                latencies.append(c.sim.now - start)

        for i, binding in enumerate(bindings):
            run_process(c.sim, client(binding, 100 * i), until=c.sim.now + 5.0)
        c.run(1.0)
        outcome = kernel_outcome(c.sim)
        outcome.update(
            replies=replies,
            latencies=latencies,
            digests=[state_digest(server.servant) for server in servers],
        )
        return outcome

    return deployment


def lively_symmetric_peers():
    c = Cluster(4, seed=11)
    config = GroupConfig(
        ordering=Ordering.SYMMETRIC, liveliness=Liveliness.LIVELY, silence_period=20e-3
    )
    sessions = build_group(c, config)
    collectors = [Collector(session) for session in sessions]
    for tick in range(25):
        for session in sessions:
            c.sim.schedule(
                tick * 7e-3, session.send, {"from": session.member_id, "n": [tick]}
            )
    c.run(3.0)
    outcome = kernel_outcome(c.sim)
    outcome["deliveries"] = [collector.deliveries for collector in collectors]
    return outcome


def scenario(name):
    def deployment():
        report = run_scenario(SCENARIOS / f"{name}.json")
        del report["wall_time_s"]
        return report

    return deployment


def lossy_join():
    c, record = join_under_loss(7, True)
    assert check_invariants(record, total_order=True) == []
    outcome = kernel_outcome(c.sim)
    outcome["history"] = record.events
    return outcome


def test_closed_wait_for_all_is_identical_over_real_bytes(in_both_modes):
    reference, over_bytes, wire = in_both_modes(
        closed_wait_for_all(Counter, "incr", lambda n: (n,))
    )
    assert reference == over_bytes
    assert len(reference["replies"]) == 24
    assert all(len(reply) == 3 for reply in reference["replies"])
    assert len(set(reference["digests"])) == 1
    assert wire["checked"] == wire["carried"] == over_bytes["counters"]["net.sent"] > 0


def test_lively_symmetric_peer_group_is_identical_over_real_bytes(in_both_modes):
    reference, over_bytes, wire = in_both_modes(lively_symmetric_peers)
    assert reference == over_bytes
    assert all(len(log) == 100 for log in reference["deliveries"])
    assert wire["checked"] == wire["carried"] == over_bytes["counters"]["net.sent"] > 0


@pytest.mark.parametrize("name", ["sharded_kvstore", "lan_manager_crash_restart"])
def test_scenario_report_is_identical_over_real_bytes(in_both_modes, name):
    """Key routing with scatter/gather, and a manager restart whose state
    snapshot travels by reference too; both crash a node in mid-traffic."""
    reference, over_bytes, wire = in_both_modes(scenario(name))
    assert reference == over_bytes
    assert reference["passed"] and reference["recovery"]["converged"]
    # a hop is counted at transmit, after the send CPU: what the crashed node
    # had encoded but not yet put on the wire was checked and never carried
    assert wire["checked"] >= wire["carried"] == over_bytes["metrics"]["counters"]["net.sent"] > 0


def test_lossy_join_cell_is_identical_over_real_bytes(in_both_modes):
    reference, over_bytes, wire = in_both_modes(lossy_join)
    assert reference == over_bytes
    assert reference["counters"]["net.dropped"] > 0
    assert wire["checked"] == wire["carried"] == over_bytes["counters"]["net.sent"] > 0


def test_the_comparison_catches_a_servant_that_mutates_its_argument(in_both_modes):
    """Teeth: by reference the three replicas are handed one list, so each
    sees its peers' appends; over real bytes each decodes its own copy.  The
    differential check must — and does — tell the two apart."""
    reference, over_bytes, _wire = in_both_modes(
        closed_wait_for_all(Appender, "push", lambda n: ([n],), calls=3)
    )
    assert all(
        [value for _member, value in reply] == [2, 2, 2] for reply in over_bytes["replies"]
    )
    assert reference["replies"] != over_bytes["replies"]


@pytest.mark.parametrize("verify_wire", [False, True])
def test_unmarshallable_argument_fails_at_the_call_site(monkeypatch, verify_wire):
    monkeypatch.setattr(ORB, "verify_wire", verify_wire)
    sim, _net, client, server = setup_pair()
    target = server.register(Counter())
    for unmarshallable in (object(), 2**63):
        with pytest.raises(MarshalError):
            client.invoke(target, "incr", (unmarshallable,))
    sim.run()
    assert sim.obs.metrics_snapshot()["counters"].get("net.sent", 0) == 0


def test_a_message_decoded_on_arrival_rebuilds_its_id_slots(monkeypatch):
    """Under ``verify_wire`` a receiver gets a decoded copy: the non-wire
    ``call_id``/``msg_id`` it reads come from that copy's constructor."""
    monkeypatch.setattr(ORB, "verify_wire", True)
    sim, _net, client, server = setup_pair()
    servant = Echo()
    target = server.register(servant)
    reply = ReplyMsg("c1", 3, "m1", True, "v")
    sent = [
        InvokeMsg("c1", 3, "op", (1, "two"), "all", False, ""),
        reply,
        ReplySet("c1", 3, [reply]),
        DataMsg("g", "m1", 2, 7, 31, "data", b"payload", None, None, {"m1": 7}),
    ]
    for message in sent:
        client.invoke(target, "fire_and_forget", (message,), oneway=True)
    sim.run()
    assert [type(message) for message in servant.calls] == [type(message) for message in sent]
    assert not any(got is message for got, message in zip(servant.calls, sent))
    invoke, reply_back, reply_set, data = servant.calls
    assert invoke.call_id == reply_back.call_id == reply_set.call_id == ("c1", 3)
    assert reply_set.replies[0].call_id == ("c1", 3)
    assert data.msg_id == (2, "m1", 7)
