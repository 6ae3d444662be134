"""Tests for the mini-ORB: invocation, errors, oneway, local calls, naming,
IOR/IOGR semantics, the dispatch table, wire accounting and the CPU model a
remote call runs on."""

import math

import pytest

from repro.errors import ApplicationError, BadOperation, CommFailure, ObjectNotFound
from repro.net import FixedLatency, Network, Topology
from repro.net import node as node_module
from repro.orb import GIOP_OVERHEAD, IOGR, IOR, NameServer, NamingClient, ORB, encode
from repro.orb import orb as orb_module
from repro.orb.messages import Request
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
        yield naming.rebind("echo-svc", target)
        resolved = yield naming.resolve("echo-svc")
        return (yield client.invoke(resolved, "add", (1, 1)))

    assert run_process(sim, proc()) == 2


def test_name_server_rebind_replaces_and_an_unbound_name_fails():
    sim, net, client, server = setup_pair()
    ns_ref = server.register(NameServer(), object_id="NameService")
    naming = NamingClient(client, ns_ref)
    first, second = server.register(Echo()), server.register(Echo())

    def proc():
        yield naming.rebind("svc", first)
        yield naming.rebind("svc", second)
        resolved = yield naming.resolve("svc")
        try:
            yield naming.resolve("nosuch")
        except ApplicationError:
            return resolved
        raise AssertionError("resolving an unbound name should fail")

    assert run_process(sim, proc()) == second


# ---------------------------------------------------------------------------
# edge cases: IOR/IOGR semantics, oneway semantics, object activation
# ---------------------------------------------------------------------------
def make_pair(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, Topology.single_lan())
    return sim, net, ORB(net.new_node("a", "lan")), ORB(net.new_node("b", "lan"))


class TestIOR:
    def test_key_format(self):
        ior = IOR("node", "RootPOA", "obj")
        assert ior.key == "RootPOA/obj"

    def test_equality_and_hash(self):
        a = IOR("n", "P", "o")
        b = IOR("n", "P", "o")
        assert a == b and hash(a) == hash(b)
        assert a != IOR("n", "P", "other")


class TestIOGR:
    def test_requires_profiles(self):
        with pytest.raises(ValueError):
            IOGR([])

    def test_primary_bounds(self):
        with pytest.raises(ValueError):
            IOGR([IOR("n", "P", "o")], primary=1)


class TestAdapters:
    """The ORB's one object adapter: every reference names ``RootPOA``."""

    def test_duplicate_object_id_in_adapter_rejected(self):
        sim, net, a, b = make_pair()
        b.register(Echo(), object_id="x")
        with pytest.raises(ValueError):
            b.register(Echo(), object_id="x")


class Priced:
    """Answers with its tag after ``cost`` seconds of declared servant CPU."""

    def __init__(self, tag, cost):
        self.tag = tag
        self.OP_COSTS = {"echo": cost, "nosuch": cost, "_private": cost}

    def echo(self, value):
        return (self.tag, value)

    def _private(self):
        return "secret"


def timed(sim, orb, ior, operation):
    """(outcome, virtual seconds) of one invocation; errors by type name."""

    def proc():
        started = sim.now
        try:
            outcome = yield orb.invoke(ior, operation, ("x",) if operation == "echo" else ())
        except Exception as exc:  # noqa: BLE001 - the type is the outcome
            outcome = type(exc).__name__
        return outcome, sim.now - started

    return run_process(sim, proc(), until=sim.now + 5.0)


class TestDispatchTable:
    """One ``(object key, operation)`` table serves remote and colocated
    calls; activation and deactivation empty it."""

    @pytest.mark.parametrize("colocated", [False, True])
    def test_a_reused_object_id_reaches_the_new_servant_at_its_cost(self, colocated):
        sim, net, a, b = make_pair()
        caller = b if colocated else a
        ior = b.register(Priced("old", 1e-3), object_id="obj")
        outcome, old_elapsed = timed(sim, caller, ior, "echo")
        assert outcome == ("old", "x")
        assert b._dispatch[ior.key, "echo"][1].tag == "old"
        assert timed(sim, caller, ior, "echo")[0] == outcome  # answered from the table
        b.deactivate(ior)
        assert not b._dispatch
        assert b.register(Priced("new", 5e-3), object_id="obj") == ior
        outcome, new_elapsed = timed(sim, caller, ior, "echo")
        assert outcome == ("new", "x")
        # a colocated call pays LOCAL_CALL_OVERHEAD only, as it always has
        expected = 0.0 if colocated else 4e-3
        assert new_elapsed - old_elapsed == pytest.approx(expected, abs=1e-4)

    @pytest.mark.parametrize("operation", ["nosuch", "_private"])
    def test_a_bad_operation_fails_after_its_dispatch_cost(self, operation):
        sim, net, a, b = make_pair()
        ior = b.register(Priced("p", 10e-3), object_id="obj")
        _ok, good_elapsed = timed(sim, a, ior, "echo")
        for _again in range(2):  # a failure is never answered from the table
            outcome, elapsed = timed(sim, a, ior, operation)
            assert outcome == "ApplicationError"  # BadOperation, as the wire carries it
            # the request occupied the server's CPU like a good one (its
            # reply is a few bytes bigger, hence the tolerance)
            assert elapsed == pytest.approx(good_elapsed, abs=1e-4)
        assert timed(sim, b, ior, operation)[0] == "BadOperation"  # colocated: unwrapped

    def test_a_missing_object_answers_not_found(self):
        sim, net, a, b = make_pair()
        ior = b.register(Priced("p", 1e-3), object_id="obj")
        assert timed(sim, a, ior, "echo")[0] == ("p", "x")
        b.deactivate(ior)
        outcome, elapsed = timed(sim, a, ior, "echo")
        assert outcome == "ObjectNotFound"
        assert elapsed < 1e-3  # answered at once: no servant, no cost to charge
        assert timed(sim, b, ior, "echo")[0] == "ObjectNotFound"  # colocated
        # the object key names the adapter: only RootPOA's keys are served
        assert timed(sim, a, IOR("b", "NoSuchPOA", "obj"), "echo")[0] == "ObjectNotFound"


class TestWireAccounting:
    def test_request_size_includes_giop_overhead(self):
        sim, net, a, b = make_pair()
        ior = b.register(Echo())
        a.invoke(ior, "echo", ("payload",), oneway=True)
        sim.run()
        expected_floor = len(
            encode(Request(1, ior.key, "echo", ("payload",), True, ""))
        )
        assert net.stats.bytes_sent >= expected_floor + GIOP_OVERHEAD - 8

    def test_bigger_args_cost_more_bytes(self):
        sim, net, a, b = make_pair()
        ior = b.register(Echo())
        a.invoke(ior, "echo", ("x",), oneway=True)
        sim.run()
        small = net.stats.bytes_sent
        a.invoke(ior, "echo", ("x" * 500,), oneway=True)
        sim.run()
        assert net.stats.bytes_sent - small >= 499


class TestOnewaySemantics:
    def test_oneway_to_dead_node_never_fails_the_caller(self):
        sim, net, a, b = make_pair()
        ior = b.register(Echo())
        net.crash("b")
        fut = a.invoke(ior, "echo", ("x",), oneway=True)
        assert fut.done and not fut.failed
        sim.run()  # nothing blows up

    def test_timeout_future_cleans_pending_table(self):
        sim, net, a, b = make_pair()
        ior = b.register(Echo())
        net.crash("b")

        def proc():
            try:
                yield a.invoke(ior, "echo", ("x",), timeout=0.05)
            except CommFailure:
                pass
            return len(a._pending)

        assert run_process(sim, proc(), until=5.0) == 0

    def test_late_reply_after_timeout_is_ignored(self):
        sim, net, a, b = make_pair()

        class Slow:
            def __init__(self, sim):
                self.sim = sim

            def crawl(self):
                fut = Future()
                self.sim.schedule(0.2, fut.resolve, "late")
                return fut

        ior = b.register(Slow(sim))

        def proc():
            try:
                yield a.invoke(ior, "crawl", (), timeout=0.05)
            except CommFailure:
                pass

        run_process(sim, proc(), until=1.0)
        sim.run(until=2.0)  # the late reply arrives and must be dropped

    @pytest.mark.parametrize("colocated", [False, True])
    @pytest.mark.parametrize(
        "operation, args, raised", [("boom", (), ValueError), ("echo", (), TypeError)]
    )
    def test_a_oneway_servant_exception_propagates_out_of_the_run(
        self, colocated, operation, args, raised
    ):
        """A oneway's dispatch job is its servant method: no reply can carry
        the exception, so it is a bug of the simulation and never swallowed."""
        sim, net, a, b = make_pair()
        servant = Echo()
        ior = b.register(servant)
        caller = b if colocated else a
        assert caller.invoke(ior, operation, args, oneway=True).done
        caller.invoke(ior, "fire_and_forget", ("after",), oneway=True)
        with pytest.raises(raised):
            sim.run()
        sim.run()  # the run carries on from the next event
        assert servant.calls == ["after"]

    @pytest.mark.parametrize("colocated", [False, True])
    def test_a_two_way_call_still_gets_the_servant_exception(self, colocated):
        sim, net, a, b = make_pair()
        ior = b.register(Echo())
        assert timed(sim, b if colocated else a, ior, "boom")[0] == "ApplicationError"

    @pytest.mark.parametrize("operation", ["nosuch", "_private"])
    def test_a_oneway_to_a_bad_operation_is_charged_its_dispatch_cost_and_dropped(
        self, operation
    ):
        sim, net, a, b = make_pair()
        ior = b.register(Priced("p", 10e-3), object_id="obj")
        a.invoke(ior, operation, (), oneway=True)
        sim.run()
        received_and_dispatched = b.node.busy_time
        b.deactivate(ior)  # the same request again, to no object: received only
        a.invoke(ior, operation, (), oneway=True)
        sim.run()
        received = b.node.busy_time - received_and_dispatched
        dispatch = orb_module.DISPATCH_OVERHEAD + 10e-3
        assert received_and_dispatched - received == pytest.approx(dispatch, abs=1e-12)
        assert net.stats.messages_sent == 2  # and nothing answered either
        # colocated: charged the local call overhead, dropped, resolved
        ior = b.register(Priced("p", 10e-3), object_id="obj")
        before = b.node.busy_time
        assert b.invoke(ior, operation, (), oneway=True).done
        sim.run()
        assert b.node.busy_time - before == pytest.approx(orb_module.LOCAL_CALL_OVERHEAD)


# ---------------------------------------------------------------------------
# the CPU model a remote call runs on, pinned to exact virtual times
# ---------------------------------------------------------------------------
class TestCpuModel:
    """Round costs on a two-node LAN with a fixed 10 s link and no
    serialisation: a send job costs 1 s, a receive job 2 s, and a dispatch
    3 s of ORB work plus the servant's 4 s, each a job of its own."""

    class Servant:
        OP_COSTS = {"echo": 4.0, "nosuch": 4.0}

        def echo(self, value):
            return value

    @pytest.fixture
    def lan(self, monkeypatch):
        monkeypatch.setattr(node_module, "SEND_OVERHEAD", 1.0)
        monkeypatch.setattr(node_module, "RECV_OVERHEAD", 2.0)
        monkeypatch.setattr(node_module, "PER_BYTE", 0.0)
        monkeypatch.setattr(orb_module, "DISPATCH_OVERHEAD", 3.0)
        topology = Topology()
        topology.DEFAULT_LAN_BANDWIDTH = math.inf
        topology.add_site("lan", FixedLatency(10.0))
        sim = Simulator()
        net = Network(sim, topology)
        return sim, net, ORB(net.new_node("a", "lan")), ORB(net.new_node("b", "lan"))

    @staticmethod
    def finish(sim, fut):
        """(virtual time, outcome) of the call ``fut`` stands for."""
        done = []
        fut.add_done_callback(lambda f: done.append(
            (sim.now, type(f.exception).__name__ if f.failed else f.result())
        ))
        sim.run()
        return done[0]

    def test_a_two_way_call(self, lan):
        sim, net, a, b = lan
        ior = b.register(self.Servant(), object_id="obj")
        # send 0-1, link 1-11, receive 11-13, dispatch 13-20, reply send
        # 20-21, link 21-31, receive 31-33
        assert self.finish(sim, a.invoke(ior, "echo", ("x",))) == (33.0, "x")
        assert b.node.busy_time == 2.0 + 7.0 + 1.0

    def test_a_missing_object_answers_after_the_receive_cost(self, lan):
        sim, net, a, b = lan
        ior = IOR("b", "RootPOA", "obj")
        # receive 11-13, NOT_FOUND sent 13-14, link 14-24, receive 24-26
        assert self.finish(sim, a.invoke(ior, "echo", ("x",))) == (26.0, "ObjectNotFound")

    def test_a_oneway_to_a_missing_object_costs_cpu_and_sends_nothing(self, lan):
        sim, net, a, b = lan
        a.invoke(IOR("b", "RootPOA", "obj"), "echo", ("x",), oneway=True)
        sim.run()
        assert sim.now == 13.0
        assert b.node.busy_time == 2.0
        assert net.stats.messages_sent == 1

    def test_a_missing_operation_fails_after_the_dispatch_cost(self, lan):
        sim, net, a, b = lan
        ior = b.register(self.Servant(), object_id="obj")
        # as a good call: the failure is raised at the end of the dispatch job
        # and crosses the wire as an ApplicationError naming BadOperation's text
        assert self.finish(sim, a.invoke(ior, "nosuch", ())) == (33.0, "ApplicationError")
        assert b.node.busy_time == 2.0 + 7.0 + 1.0

    def test_a_job_submitted_during_a_receive_runs_before_that_messages_dispatch(self, lan):
        sim, net, a, b = lan
        ior = b.register(self.Servant(), object_id="obj")
        ran = []
        sim.schedule(12.0, b.node.execute, 5.0, lambda: ran.append(sim.now))
        # receive 11-13, the third job 13-18, dispatch 18-25, reply send
        # 25-26, link 26-36, receive 36-38
        assert self.finish(sim, a.invoke(ior, "echo", ("x",))) == (38.0, "x")
        assert ran == [18.0]
