"""ORB edge cases: IOR/IOGR semantics, oneway semantics, adapters."""

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
    def test_multiple_adapters_isolate_object_ids(self):
        sim, net, a, b = make_pair()
        ior1 = b.register(Echo(), object_id="same", adapter="POA1")
        ior2 = b.register(Echo(), object_id="same", adapter="POA2")
        assert ior1 != ior2

        def proc():
            v1 = yield a.invoke(ior1, "echo", ("one",))
            v2 = yield a.invoke(ior2, "echo", ("two",))
            return v1, v2

        assert run_process(sim, proc(), until=5.0) == ("one", "two")

    def test_duplicate_object_id_in_adapter_rejected(self):
        sim, net, a, b = make_pair()
        b.register(Echo(), object_id="x")
        with pytest.raises(ValueError):
            b.register(Echo(), object_id="x")


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
