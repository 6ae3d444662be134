"""Tests for the network substrate: topology, latency, CPU, partitions."""

import random

import pytest

from repro.net import (
    FixedLatency,
    JitteredLatency,
    Network,
    Node,
    Topology,
)
from repro.net import node as node_module
from repro.obs import Observability
from repro.sim import Simulator
from repro.sim.rng import derive_seed


def make_lan(sim=None):
    sim = sim or Simulator(seed=1)
    net = Network(sim, Topology.single_lan())
    return sim, net


def set_cpu_costs(monkeypatch, overhead):
    """Round per-message costs for CPU arithmetic: ``overhead`` seconds to
    send or receive a message, nothing per byte."""
    monkeypatch.setattr(node_module, "SEND_OVERHEAD", overhead)
    monkeypatch.setattr(node_module, "RECV_OVERHEAD", overhead)
    monkeypatch.setattr(node_module, "PER_BYTE", 0.0)


def test_fixed_latency_is_constant():
    sim = Simulator()
    model = FixedLatency(0.01)
    assert model.sample(sim.rng("x")) == 0.01
    assert model.delay == 0.01


def star(links):
    """A network of one sender ``s`` at site ``hub`` and one node per entry
    of ``links`` (``{node name: (site, latency model)}``), with every CPU
    cost zero and every site-local link fixed.  A message to a node is
    timed by its handler: ``arrivals`` holds ``(payload, sim.now)``."""
    sim = Simulator(seed=7)
    topo = Topology()
    for site in ["hub"] + sorted({site for site, _ in links.values()}):
        topo.add_site(site, FixedLatency(1e-4))
    for site, model in {site: model for site, model in links.values()}.items():
        topo.connect("hub", site, model)
    net = Network(sim, topo)
    sender = net.new_node("s", "hub")
    arrivals = []
    for name, (site, _) in links.items():
        net.new_node(name, site).register(
            "t", lambda src, payload, size: arrivals.append((payload, sim.now))
        )
    return sim, net, sender, arrivals


def test_jittered_latency_within_bounds(monkeypatch):
    set_cpu_costs(monkeypatch, 0.0)
    sim, net, sender, arrivals = star({"d": ("far", JitteredLatency(10e-3, jitter=0.2))})
    samples = []
    for i in range(1000):
        sent = sim.now
        sender.send("d", "t", i, 0)
        sim.run()
        arrived = arrivals[-1][1]
        assert sent + 5e-3 <= arrived <= sent + 30e-3
        samples.append(arrived - sent)
    mean = sum(samples) / len(samples)
    assert abs(mean - 10e-3) < 1e-3


def test_the_in_line_jitter_draw_is_random_gauss_on_the_network_stream(monkeypatch):
    """``Network.transmit`` runs ``random.gauss``'s Box-Muller step itself.
    Replayed on a fresh stream of the same seed, every delay of two
    jittered links is ``min(ceil, max(floor, gauss(base, base * jitter)))``,
    with a pair's two halves split across links and rounds, and the fixed
    link between them draws nothing."""
    set_cpu_costs(monkeypatch, 0.0)
    near = JitteredLatency(1e-3, jitter=0.2)
    far = JitteredLatency(10e-3, jitter=0.15)
    links = {
        "n1": ("near", near),
        "f": ("fixed", FixedLatency(5e-3)),
        "w": ("far", far),
        "n2": ("near", near),  # a second route over near's pipe: no FIFO clamp
    }
    sim, net, sender, arrivals = star(links)
    replay = random.Random(derive_seed(sim.seed, "net.latency"))
    rounds = 2500
    for r in range(rounds):
        # three draws a round: a Box-Muller pair splits across links and,
        # every other round, across the round boundary
        sent = sim.now
        for dst in links:
            sender.send(dst, "t", (r, dst), 0)
        sim.run()
        got = dict(arrivals[-len(links):])
        for dst, (_, model) in links.items():
            if isinstance(model, FixedLatency):
                expected = model.delay
            else:
                value = replay.gauss(model.base, model.base * model.jitter)
                expected = min(model.ceil, max(model.floor, value))
            assert got[r, dst] == sent + expected, (r, dst)
    assert len(arrivals) == rounds * len(links) >= 10_000
    assert net._rng.getstate() == replay.getstate()  # gauss_next included


def test_latency_validation():
    with pytest.raises(ValueError):
        FixedLatency(-1)
    with pytest.raises(ValueError):
        JitteredLatency(0)


def test_topology_intra_vs_inter_links():
    topo = Topology.paper_wan()
    lan = topo.link("newcastle", "newcastle")
    wan = topo.link("newcastle", "pisa")
    assert lan.latency.base < 1e-3
    assert wan.latency.base > 5e-3
    # symmetric lookup
    assert topo.link("pisa", "newcastle") is wan


def test_topology_unknown_site_rejected():
    topo = Topology.single_lan()
    with pytest.raises(KeyError):
        topo.link("lan", "mars")


def test_topology_missing_link_uses_default_wan():
    topo = Topology()
    topo.add_site("a", FixedLatency(1e-4))
    topo.add_site("b", FixedLatency(1e-4))
    with pytest.raises(KeyError):
        topo.link("a", "b")
    topo.set_default_wan(FixedLatency(0.02))
    assert topo.link("a", "b").latency.delay == 0.02


def test_duplicate_site_rejected():
    topo = Topology()
    topo.add_site("a", FixedLatency(1e-4))
    with pytest.raises(ValueError):
        topo.add_site("a", FixedLatency(1e-4))


def test_message_delivery_between_nodes():
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    received = []
    b.register("test", lambda src, payload, size: received.append((src, payload)))
    a.send("b", "test", b"hello", 100)
    sim.run()
    assert received == [("a", b"hello")]
    assert sim.now > 0  # latency + cpu elapsed


def test_delivery_pays_latency_and_cpu(monkeypatch):
    set_cpu_costs(monkeypatch, 1e-4)
    sim = Simulator(seed=1)
    topo = Topology()
    topo.add_site("lan", FixedLatency(1e-3))
    net = Network(sim, topo)
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    times = []
    b.register("test", lambda *_: times.append(sim.now))
    a.send("b", "test", b"", 0)
    sim.run()
    # send cpu (0.1ms) + latency (1ms) + recv cpu (0.1ms)
    assert times[0] == pytest.approx(1.2e-3, rel=1e-6)


def test_fifo_per_link_pair():
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    received = []
    b.register("test", lambda src, payload, size: received.append(payload))
    for i in range(50):
        a.send("b", "test", i, 64)
    sim.run()
    assert received == list(range(50))


def test_cpu_serialises_work():
    sim = Simulator()
    topo = Topology.single_lan()
    net = Network(sim, topo)
    node = net.new_node("n", "lan")
    finish_times = []
    node.execute(1.0, lambda: finish_times.append(sim.now))
    node.execute(1.0, lambda: finish_times.append(sim.now))
    sim.run()
    assert finish_times == [1.0, 2.0]
    assert node.busy_time == 2.0


def test_cpu_utilisation():
    sim, net = make_lan(Simulator())
    node = net.new_node("n", "lan")
    node.execute(2.0, lambda: None)
    sim.run()
    assert node.utilisation(4.0) == pytest.approx(0.5)
    assert node.utilisation(0.0) == 0.0


def test_crash_drops_inbound_and_queued_work():
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    received = []
    b.register("test", lambda src, payload, size: received.append(payload))
    a.send("b", "test", 1, 64)
    sim.run()
    b.crash()
    a.send("b", "test", 2, 64)
    sim.run()
    assert received == [1]
    assert net.stats.messages_dropped >= 1


def test_a_crash_drops_queued_cpu_work_even_if_the_node_recovers_before_it_is_due():
    """crash() promises to drop all queued work: a job of the crashed
    incarnation stays dead when a recovery comes before its time."""
    sim, net = make_lan()
    node = net.new_node("n", "lan")
    ran = []
    node.execute(0.5, ran.append, "before the crash")
    sim.schedule(0.1, node.crash)
    sim.schedule(0.2, node.recover)
    sim.run()
    assert ran == []
    node.execute(0.1, ran.append, "after the recovery")
    sim.run()
    assert ran == ["after the recovery"]
    assert sim.now == pytest.approx(0.6)


def test_a_cpu_job_skipped_after_a_crash_still_counts_as_an_event():
    sim, net = make_lan()
    node = net.new_node("n", "lan")
    ran = []
    node.execute(0.5, ran.append, "job")
    sim.schedule(0.1, node.crash)
    sim.run()
    assert ran == []
    assert sim.events_processed == 2  # the crash, and the job it killed
    assert sim.now == 0.5
    # busy for the 0.1 s the job ran, not the 0.5 s it was submitted with
    assert node.busy_time == pytest.approx(0.1)
    assert node.utilisation(0.5) == pytest.approx(0.2)


def test_recovered_node_receives_again():
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    received = []
    b.register("test", lambda src, payload, size: received.append(payload))
    b.crash()
    a.send("b", "test", 1, 64)
    sim.run()
    b.recover()
    a.send("b", "test", 2, 64)
    sim.run()
    assert received == [2]


def test_partition_blocks_cross_group_traffic():
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    c = net.new_node("c", "lan")
    received = {name: [] for name in "abc"}
    for node, name in ((a, "a"), (b, "b"), (c, "c")):
        node.register("test", lambda src, payload, size, name=name: received[name].append(payload))
    net.partition({"a", "b"})
    a.send("b", "test", "ab", 64)
    a.send("c", "test", "ac", 64)
    c.send("a", "test", "ca", 64)
    sim.run()
    assert received["b"] == ["ab"]
    assert received["c"] == []
    assert received["a"] == []
    net.heal()
    a.send("c", "test", "ac2", 64)
    sim.run()
    assert received["c"] == ["ac2"]


def test_partition_sites():
    sim = Simulator(seed=3)
    net = Network(sim, Topology.paper_wan())
    a = net.new_node("a", "newcastle")
    b = net.new_node("b", "pisa")
    got = []
    b.register("t", lambda *args: got.append(args[1]))
    net.partition_sites({"newcastle", "london"}, {"pisa"})
    a.send("b", "t", "x", 10)
    sim.run()
    assert got == []
    assert not net.reachable("a", "b")
    assert net.reachable("b", "b")


def test_lossy_link_drops_messages():
    sim = Simulator(seed=5)
    topo = Topology()
    topo.add_site("lan", FixedLatency(1e-4), loss=0.5)
    net = Network(sim, topo)
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    got = []
    b.register("t", lambda src, p, s: got.append(p))
    for i in range(200):
        a.send("b", "t", i, 10)
    sim.run()
    assert 40 < len(got) < 160  # roughly half arrive
    assert net.stats.messages_dropped == 200 - len(got)


def test_stats_counters():
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    b.register("svc", lambda *_: None)
    a.send("b", "svc", "x", 128)
    sim.run()
    snap = net.stats.snapshot()
    assert snap["sent"] == 1
    assert snap["delivered"] == 1
    assert snap["bytes"] == 128
    # the registry holds the only copy: the stats object is a view of it
    counters = sim.obs.metrics_snapshot()["counters"]
    assert (counters["net.sent"], counters["net.bytes_sent"]) == (1, 128)
    assert counters["net.hops.svc"] == 1
    assert (net.stats.messages_sent, net.stats.bytes_sent) == (1, 128)


def test_unknown_service_silently_dropped():
    """A service with no handler is a closed port: the message is dropped
    at send, never arrives and costs the receiver no CPU."""
    sim = Simulator(seed=1, obs=Observability(trace=True))
    net = Network(sim, Topology.single_lan())
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    a.send("b", "nosuch", "x", 10)
    sim.run()  # must not raise
    assert (net.stats.messages_delivered, net.stats.messages_dropped) == (0, 1)
    assert sim.events_processed == 1  # the send job: no arrival
    assert b.busy_time == 0.0
    [hop] = [r for r in sim.obs.trace_records() if r["name"] == "net.hop"]
    assert hop["attrs"]["outcome"] == "dropped"
    assert hop["attrs"]["reason"] == "closed port"


def test_a_message_to_a_node_that_crashes_in_flight_is_dropped_at_arrival():
    """The arrival becomes the receive job when it is due, so the
    receiver's liveness at arrival decides: crashed drops it, recovered
    takes it."""
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    received = []
    b.register("t", lambda src, payload, size: received.append(payload))
    a.send("b", "t", "lost", 10)
    sim.run(until=sim.now + 100e-6)  # sent (60 us of CPU), not yet arrived
    assert net.stats.messages_sent == 1
    b.crash()
    sim.run()
    assert received == [] and b.busy_time == 0.0
    b.recover()
    a.send("b", "t", "taken", 10)
    sim.run(until=sim.now + 100e-6)
    b.crash()
    b.recover()  # before the arrival: the new incarnation receives it
    sim.run()
    assert received == ["taken"]


def test_duplicate_node_name_rejected():
    sim, net = make_lan()
    net.new_node("a", "lan")
    with pytest.raises(ValueError):
        net.new_node("a", "lan")


def test_node_at_unknown_site_rejected():
    sim, net = make_lan()
    with pytest.raises(KeyError):
        net.attach(Node(sim, "x", "mars"))


def test_duplicate_service_registration_rejected():
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    a.register("svc", lambda *_: None)
    with pytest.raises(ValueError):
        a.register("svc", lambda *_: None)


# ---------------------------------------------------------------------------
# the route record: one per (src, dst), resolved on first use
# ---------------------------------------------------------------------------
class ScriptedLatency(FixedLatency):
    """Hands out the given one-way delays in order."""

    def __init__(self, *delays):
        super().__init__(0.0)
        self.delays = list(delays)

    def sample(self, rng):
        return self.delays.pop(0)


def test_message_to_an_unattached_node_is_dropped_and_no_stale_route_survives():
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    a.send("b", "t", "early", 10)
    sim.run()
    assert net.stats.messages_dropped == 1
    b = net.new_node("b", "lan")
    got = []
    b.register("t", lambda src, payload, size: got.append(payload))
    a.send("b", "t", "late", 10)
    sim.run()
    assert got == ["late"]
    assert (net.stats.messages_dropped, net.stats.messages_delivered) == (1, 1)


def test_crash_recover_and_partition_heal_act_on_a_resolved_route():
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    got = []
    b.register("t", lambda src, payload, size: got.append(payload))

    def send(payload):
        a.send("b", "t", payload, 10)
        sim.run()

    send("resolved")
    net.crash("b")
    send("while crashed")
    net.recover("b")
    send("recovered")
    net.partition({"a"}, {"b"})
    send("while partitioned")
    net.heal()
    send("healed")
    assert got == ["resolved", "recovered", "healed"]
    assert net.stats.messages_dropped == 2


def test_routes_across_one_site_pair_share_a_pipe_but_not_a_fifo_clamp(monkeypatch):
    set_cpu_costs(monkeypatch, 0.0)
    sim = Simulator(seed=1)
    topo = Topology()
    topo.add_site("A", FixedLatency(1e-4))
    topo.add_site("B", FixedLatency(1e-4))
    topo.connect("A", "B", ScriptedLatency(10e-3, 1e-3, 1e-3))
    net = Network(sim, topo)
    a1, a2 = (net.new_node(name, "A") for name in ("a1", "a2"))
    arrivals = []
    for name in ("b1", "b2"):
        node = net.new_node(name, "B")
        node.register("t", lambda src, payload, size: arrivals.append((payload, sim.now)))
    size = 1000
    tx = size * 8.0 / Topology.DEFAULT_WAN_BANDWIDTH
    a1.send("b1", "t", "a1-first", size)  # 10 ms in flight
    a2.send("b2", "t", "a2", size)  # 1 ms, but queued behind a1's frame
    a1.send("b1", "t", "a1-second", size)  # 1 ms, but FIFO behind a1-first
    sim.run()
    at = dict(arrivals)
    # one pipe: the three frames serialise one after another
    assert at["a2"] == pytest.approx(2 * tx + 1e-3)
    # the FIFO clamp is per (src, dst): a2 -> b2 overtakes a1 -> b1 ...
    assert at["a2"] < at["a1-first"] == pytest.approx(tx + 10e-3)
    # ... but a1's second frame waits for its first
    assert at["a1-second"] == at["a1-first"]
    assert [payload for payload, _ in arrivals] == ["a2", "a1-first", "a1-second"]


def test_topology_is_consulted_once_per_route():
    sim, net = make_lan()
    a = net.new_node("a", "lan")
    b = net.new_node("b", "lan")
    for node in (a, b):
        node.register("t", lambda *_: None)
    lookups = []
    real_link = net.topology.link
    net.topology.link = lambda *sites: lookups.append(sites) or real_link(*sites)
    for _ in range(5):
        a.send("b", "t", "x", 10)
        b.send("a", "t", "y", 10)
    sim.run()
    assert lookups == [("lan", "lan"), ("lan", "lan")]  # a -> b and b -> a
    assert net.stats.messages_delivered == 10
