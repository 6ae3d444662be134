"""Tests for the mini-ORB: invocation, errors, oneway, local calls, proxies."""

import pytest

from repro.errors import ApplicationError, BadOperation, CommFailure, ObjectNotFound
from repro.net import Network, Topology
from repro.orb import (
    GroupProxy,
    IOGR,
    NameServer,
    NamingClient,
    ORB,
)
from repro.sim import Future, Simulator, run_process, sleep


class Echo:
    """Test servant."""

    def __init__(self):
        self.calls = []

    def echo(self, value):
        self.calls.append(value)
        return value

    def add(self, a, b):
        return a + b

    def boom(self):
        raise ValueError("kapow")

    def fire_and_forget(self, value):
        self.calls.append(value)

    def _private(self):
        return "secret"


class DeferredServant:
    """Servant whose reply is produced later via a Future."""

    def __init__(self, sim):
        self.sim = sim

    def slow(self):
        fut = Future()
        self.sim.schedule(0.05, fut.resolve, "eventually")
        return fut


def setup_pair(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, Topology.single_lan())
    client_node = net.new_node("client", "lan")
    server_node = net.new_node("server", "lan")
    return sim, net, ORB(client_node), ORB(server_node)


def test_remote_invocation_returns_value():
    sim, net, client, server = setup_pair()
    ior = server.register(Echo())

    def proc():
        value = yield client.invoke(ior, "add", (2, 3))
        return value

    assert run_process(sim, proc()) == 5


def test_remote_invocation_pays_network_time():
    sim, net, client, server = setup_pair()
    ior = server.register(Echo())

    def proc():
        yield client.invoke(ior, "echo", ("x",))
        return sim.now

    elapsed = run_process(sim, proc())
    assert 2e-4 < elapsed < 5e-3  # two LAN hops plus CPU


def test_servant_exception_propagates():
    sim, net, client, server = setup_pair()
    ior = server.register(Echo())

    def proc():
        try:
            yield client.invoke(ior, "boom", ())
        except ApplicationError as exc:
            return str(exc)

    assert "kapow" in run_process(sim, proc())


def test_unknown_object_raises_object_not_found():
    sim, net, client, server = setup_pair()
    ior = server.register(Echo())
    server.deactivate(ior)

    def proc():
        try:
            yield client.invoke(ior, "echo", ("x",))
        except ObjectNotFound:
            return "not-found"

    assert run_process(sim, proc()) == "not-found"


def test_unknown_operation_raises_application_error():
    sim, net, client, server = setup_pair()
    ior = server.register(Echo())

    def proc():
        try:
            yield client.invoke(ior, "nosuch", ())
        except ApplicationError:
            return "bad-op"

    assert run_process(sim, proc()) == "bad-op"


def test_private_methods_not_invocable():
    sim, net, client, server = setup_pair()
    ior = server.register(Echo())

    def proc():
        try:
            yield client.invoke(ior, "_private", ())
        except ApplicationError:
            return "denied"

    assert run_process(sim, proc()) == "denied"


def test_oneway_resolves_immediately_and_delivers():
    sim, net, client, server = setup_pair()
    servant = Echo()
    ior = server.register(servant)
    fut = client.invoke(ior, "fire_and_forget", ("msg",), oneway=True)
    assert fut.done  # resolved before any network delivery
    sim.run()
    assert servant.calls == ["msg"]


def test_local_invocation_bypasses_network():
    sim, net, client, server = setup_pair()
    servant = Echo()
    ior = client.register(servant)  # servant on the *client's* node

    def proc():
        value = yield client.invoke(ior, "echo", ("local",))
        return value, sim.now

    value, elapsed = run_process(sim, proc())
    assert value == "local"
    assert net.stats.messages_sent == 0
    assert elapsed < 1e-4


def test_timeout_on_crashed_server():
    sim, net, client, server = setup_pair()
    ior = server.register(Echo())
    net.crash("server")

    def proc():
        try:
            yield client.invoke(ior, "echo", ("x",), timeout=0.1)
        except CommFailure:
            return "timed-out"

    assert run_process(sim, proc()) == "timed-out"


def test_deferred_servant_reply():
    sim, net, client, server = setup_pair()
    ior = server.register(DeferredServant(sim))

    def proc():
        value = yield client.invoke(ior, "slow", ())
        return value

    assert run_process(sim, proc()) == "eventually"


def test_concurrent_invocations_multiplex_correctly():
    sim, net, client, server = setup_pair()
    ior = server.register(Echo())

    def proc():
        futs = [client.invoke(ior, "echo", (i,)) for i in range(10)]
        from repro.sim import all_of

        values = yield all_of(futs)
        return values

    assert run_process(sim, proc()) == list(range(10))


def test_name_server_bind_resolve():
    sim, net, client, server = setup_pair()
    ns_ref = server.register(NameServer(), object_id="NameService")
    naming = NamingClient(client, ns_ref)
    target = server.register(Echo())

    def proc():
        yield naming.bind("echo-svc", target)
        resolved = yield naming.resolve("echo-svc")
        value = yield client.invoke(resolved, "add", (1, 1))
        names = yield naming.list_names()
        return value, names

    value, names = run_process(sim, proc())
    assert value == 2
    assert names == ["echo-svc"]


def test_name_server_duplicate_bind_fails_but_rebind_works():
    sim, net, client, server = setup_pair()
    ns_ref = server.register(NameServer(), object_id="NameService")
    naming = NamingClient(client, ns_ref)
    target = server.register(Echo())

    def proc():
        yield naming.bind("svc", target)
        try:
            yield naming.bind("svc", target)
        except ApplicationError:
            pass
        else:
            raise AssertionError("duplicate bind should fail")
        yield naming.rebind("svc", target)
        missing = yield naming.unbind("nosuch")
        return missing

    assert run_process(sim, proc()) is False


def test_group_proxy_fails_over_to_next_profile():
    sim = Simulator(seed=2)
    net = Network(sim, Topology.single_lan())
    client_node = net.new_node("client", "lan")
    s1 = net.new_node("s1", "lan")
    s2 = net.new_node("s2", "lan")
    client = ORB(client_node)
    orb1, orb2 = ORB(s1), ORB(s2)
    ior1 = orb1.register(Echo(), object_id="e")
    ior2 = orb2.register(Echo(), object_id="e")
    proxy = GroupProxy(client, IOGR([ior1, ior2]), timeout=0.05)
    net.crash("s1")

    def proc():
        value = yield proxy.invoke("add", (4, 4))
        return value

    assert run_process(sim, proc()) == 8
    assert proxy.failovers == 1
    assert proxy.current_ref == ior2


def test_group_proxy_all_profiles_down():
    sim = Simulator(seed=2)
    net = Network(sim, Topology.single_lan())
    client = ORB(net.new_node("client", "lan"))
    orb1 = ORB(net.new_node("s1", "lan"))
    ior1 = orb1.register(Echo())
    proxy = GroupProxy(client, IOGR([ior1]), timeout=0.05)
    net.crash("s1")

    def proc():
        try:
            yield proxy.invoke("echo", ("x",))
        except CommFailure:
            return "down"

    assert run_process(sim, proc()) == "down"


def test_group_proxy_does_not_fail_over_on_application_error():
    sim = Simulator(seed=2)
    net = Network(sim, Topology.single_lan())
    client = ORB(net.new_node("client", "lan"))
    orb1 = ORB(net.new_node("s1", "lan"))
    orb2 = ORB(net.new_node("s2", "lan"))
    ior1 = orb1.register(Echo())
    ior2 = orb2.register(Echo())
    proxy = GroupProxy(client, IOGR([ior1, ior2]), timeout=0.05)

    def proc():
        try:
            yield proxy.invoke("boom", ())
        except ApplicationError:
            return proxy.failovers

    assert run_process(sim, proc()) == 0
