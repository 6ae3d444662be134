"""Tests for the service registry and its interaction with view changes."""

from repro.core import ServiceRegistry
from repro.core.registry import client_sink_id, server_servant_id
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.orb import IOGR, NameServer, ORB
from repro.net import Network, Topology
from repro.sim import Simulator, run_process
from tests.core_helpers import AppCluster, Counter


def setup_registry():
    sim = Simulator(seed=3)
    net = Network(sim, Topology.single_lan())
    server_orb = ORB(net.new_node("ns", "lan"))
    ns_ref = server_orb.register(NameServer(), object_id="NameService")
    client_orb = ORB(net.new_node("app", "lan"))
    return sim, ServiceRegistry(client_orb, ns_ref)


def test_servant_id_helpers():
    assert server_servant_id("calc") == "OGS:calc"
    assert client_sink_id("c0") == "SINK:c0"


def test_advertise_and_lookup_roundtrip():
    sim, registry = setup_registry()

    def proc():
        yield registry.advertise("calc", ["s0", "s1", "s2"])
        iogr = yield registry.lookup("calc")
        return iogr

    iogr = run_process(sim, proc(), until=5.0)
    assert isinstance(iogr, IOGR)
    assert ServiceRegistry.members_of(iogr) == ["s0", "s1", "s2"]
    assert iogr.profiles[iogr.primary].node == "s0"
    assert iogr.profiles[0].object_id == "OGS:calc"


def test_readvertise_replaces_members():
    sim, registry = setup_registry()

    def proc():
        yield registry.advertise("calc", ["s0", "s1"])
        yield registry.advertise("calc", ["s1"])
        iogr = yield registry.lookup("calc")
        return iogr

    iogr = run_process(sim, proc(), until=5.0)
    assert ServiceRegistry.members_of(iogr) == ["s1"]


def test_registry_refreshed_after_member_crash():
    """The surviving coordinator re-advertises the shrunken membership."""
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        liveliness=Liveliness.LIVELY,
        silence_period=20e-3,
        suspicion_timeout=100e-3,
    )
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter, config=config)
    c.net.crash("s1")
    c.run(3.0)

    def proc():
        iogr = yield c.client(0).registry.lookup("svc")
        return ServiceRegistry.members_of(iogr)

    from repro.sim import spawn

    proc_obj = spawn(c.sim, proc())
    c.run(1.0)
    assert proc_obj.done
    assert set(proc_obj.result()) == {"s0", "s2"}
