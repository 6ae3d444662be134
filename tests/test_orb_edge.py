"""ORB edge cases: IOR/IOGR semantics, oneway semantics, object activation."""

import pytest

from repro.errors import CommFailure
from repro.net import Network, Topology
from repro.orb import GIOP_OVERHEAD, IOGR, IOR, ORB, encode
from repro.orb.messages import Request
from repro.sim import Simulator, run_process


class Echo:
    def echo(self, value):
        return value


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
                from repro.sim import Future

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
