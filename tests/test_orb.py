"""Tests for the mini-ORB: invocation, errors, oneway, local calls, naming."""

import pytest

from repro.errors import ApplicationError, BadOperation, CommFailure, ObjectNotFound
from repro.net import Network, Topology
from repro.orb import NameServer, NamingClient, ORB
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
