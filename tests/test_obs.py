"""Observability layer tests: tracer, metrics, exporters, and the
end-to-end causal traces of the paper's fig. 9 m1-m6 invocation path."""

import io
import json

import pytest

from repro.bench.harness import request_reply_point
from repro.core import BindingStyle, Mode
from repro.groupcomm import GroupConfig, Ordering
from repro.net import FixedLatency, Topology
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Observability,
    Tracer,
    build_trees,
    merge_snapshots,
    read_jsonl,
    reconcile_traffic,
    render_metrics_table,
    render_timeline,
    spans_by_trace,
    write_jsonl,
)
from tests.conftest import Cluster, Collector


# ---------------------------------------------------------------------------
# metrics primitives
# ---------------------------------------------------------------------------
def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    counter = registry.counter("a.b")
    counter.inc()
    counter.inc(3)
    assert counter.value == 4
    assert registry.counter("a.b") is counter  # cached by name
    gauge = registry.gauge("depth")
    gauge.set(2.5)
    gauge.add(0.5)
    assert gauge.value == 3.0


def test_histogram_percentiles_bracket_observations():
    hist = Histogram("lat")
    for ms in range(1, 101):
        hist.record(ms * 1e-3)
    summary = hist.summary()
    assert summary["count"] == 100
    assert summary["min"] == pytest.approx(1e-3)
    assert summary["max"] == pytest.approx(100e-3)
    # HDR buckets are approximate but percentiles must be ordered and
    # land within the observed range
    assert summary["min"] <= summary["p50"] <= summary["p95"] <= summary["p99"]
    assert summary["p99"] <= summary["max"]
    assert summary["p50"] == pytest.approx(50e-3, rel=0.15)


def test_histogram_handles_zero_and_negative():
    hist = Histogram("queue")
    hist.record(0.0)
    hist.record(0.0)
    summary = hist.summary()
    assert summary["count"] == 2
    assert summary["p95"] == 0.0


def test_snapshot_is_sorted_and_merge_sums_counters():
    r1 = MetricsRegistry()
    r1.counter("z").inc(2)
    r1.counter("a").inc(1)
    r1.histogram("h").record(1.0)
    r2 = MetricsRegistry()
    r2.counter("z").inc(5)
    s1, s2 = r1.snapshot(), r2.snapshot()
    assert list(s1["counters"]) == ["a", "z"]
    merged = merge_snapshots([s1, s2])
    assert merged["counters"]["z"] == 7
    assert merged["counters"]["a"] == 1
    assert merged["histograms"]["h"]["count"] == 1


def test_merge_snapshots_is_order_independent():
    # registries create histograms on construction, so "still empty in one
    # run, filled in the next" is the normal input of TraceSink.merged_metrics
    empty, filled = MetricsRegistry(), MetricsRegistry()
    empty.histogram("h")
    filled.histogram("h").record(5.0)
    filled.histogram("h").record(7.0)
    forward = merge_snapshots([empty.snapshot(), filled.snapshot()])
    backward = merge_snapshots([filled.snapshot(), empty.snapshot()])
    assert forward == backward
    assert forward["histograms"]["h"] == {"count": 2, "mean": 6.0, "min": 5.0, "max": 7.0}


# ---------------------------------------------------------------------------
# tracer primitives
# ---------------------------------------------------------------------------
def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    span = tracer.start_span("op")
    assert span is None
    tracer.end_span(span)  # must be None-safe
    with tracer.use(span):
        pass
    assert tracer.records() == []


def test_ambient_parenting_and_stash():
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], enabled=True)
    root = tracer.start_span("root", parent=None)
    with tracer.use(root):
        child = tracer.start_span("child")
    assert child.parent_id == root.span_id
    assert child.trace_id == root.trace_id
    tracer.stash_parent("m1", root)
    orphaned = tracer.start_span("deliver", parent=tracer.stashed_parent("m1"))
    assert orphaned.parent_id == root.span_id
    assert tracer.stashed_parent("unknown") is None


# ---------------------------------------------------------------------------
# exporters: JSONL round-trip and renderers
# ---------------------------------------------------------------------------
def _sample_records():
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], enabled=True)
    root = tracer.start_span("invoke", kind="client", node="c0", attrs={"op": "draw"})
    with tracer.use(root):
        clock[0] = 0.001
        send = tracer.start_span("gc.send", node="c0")
        tracer.event("manager.forward", span=send, mode="all")
        clock[0] = 0.002
        tracer.end_span(send)
    clock[0] = 0.003
    tracer.end_span(root, outcome="ok")
    return tracer.records()


def test_jsonl_round_trip_preserves_tree():
    records = _sample_records()
    buffer = io.StringIO()
    assert write_jsonl(buffer, records) == len(records)
    buffer.seek(0)
    loaded = read_jsonl(buffer)
    assert loaded == json.loads(json.dumps(records))  # exact value round-trip
    roots_a, children_a = build_trees(records)
    roots_b, children_b = build_trees(loaded)
    assert [r["span"] for r in roots_a] == [r["span"] for r in roots_b]
    assert {k: [c["span"] for c in v] for k, v in children_a.items()} == {
        k: [c["span"] for c in v] for k, v in children_b.items()
    }


def test_timeline_and_table_render():
    records = _sample_records()
    timeline = render_timeline(records)
    assert "invoke" in timeline and "gc.send" in timeline
    assert "* manager.forward" in timeline
    registry = MetricsRegistry()
    registry.counter("net.sent").inc(7)
    registry.histogram("lat").record(0.5)
    table = render_metrics_table(registry.snapshot())
    assert "net.sent" in table and "7" in table
    assert "lat" in table


# ---------------------------------------------------------------------------
# end-to-end invocation traces (the paper's fig. 9 message path)
# ---------------------------------------------------------------------------
def _invoke_traces(style, ordering=Ordering.ASYMMETRIC, root_name="invoke"):
    obs = Observability(trace=True)
    request_reply_point(
        "lan", 1, replicas=3, style=style, ordering=ordering,
        mode=Mode.ALL, requests=3, obs=obs,
    )
    traces = spans_by_trace(obs.trace_records())
    selected = {
        t: spans
        for t, spans in traces.items()
        if any(s["name"] == root_name for s in spans)
    }
    assert selected, "no invocation traces recorded"
    return selected


def _assert_connected(spans):
    ids = {s["span"] for s in spans}
    roots, _children = build_trees(spans)
    assert len(roots) == 1, f"expected one root, got {[r['name'] for r in roots]}"
    orphans = [s for s in spans if s["parent"] is not None and s["parent"] not in ids]
    assert not orphans
    return roots[0]


def test_open_invocation_is_one_connected_m1_m6_tree():
    for spans in _invoke_traces(BindingStyle.OPEN).values():
        root = _assert_connected(spans)
        assert root["name"] == "invoke"
        assert root["attrs"]["style"] == BindingStyle.OPEN
        names = {s["name"] for s in spans}
        # m1/m2/m4/m6 multicasts, network hops, ordered deliveries, m3 executes
        assert {"gc.send", "net.hop", "gc.deliver", "server.execute"} <= names
        events = {e["name"] for s in spans for e in s.get("events", [])}
        assert "manager.forward" in events  # m2: manager re-multicast
        assert "manager.reply_set" in events  # m6: replies back to the client
        executed_on = {s["node"] for s in spans if s["name"] == "server.execute"}
        assert executed_on == {"s0", "s1", "s2"}
        # everything shares the root's trace id and happens after its start
        assert {s["trace"] for s in spans} == {root["trace"]}
        assert all(s["start"] >= root["start"] for s in spans)


def test_closed_invocation_is_one_connected_tree():
    for spans in _invoke_traces(BindingStyle.CLOSED).values():
        root = _assert_connected(spans)
        assert root["attrs"]["style"] == BindingStyle.CLOSED
        names = {s["name"] for s in spans}
        assert {"gc.send", "net.hop", "gc.deliver", "server.execute"} <= names
        # closed style: the client multicasts to all servers itself; every
        # replica executes and replies point-to-point (no manager events)
        executed_on = {s["node"] for s in spans if s["name"] == "server.execute"}
        assert executed_on == {"s0", "s1", "s2"}


def test_metrics_and_traces_deterministic_across_identical_runs():
    def run():
        obs = Observability(trace=True)
        request_reply_point(
            "mixed", 2, replicas=3, style=BindingStyle.OPEN,
            mode=Mode.ALL, requests=5, seed=9, obs=obs,
        )
        return obs.metrics_snapshot(), obs.trace_records()

    snap_a, records_a = run()
    snap_b, records_b = run()
    assert snap_a == snap_b
    assert records_a == records_b


@pytest.mark.parametrize(
    "style,ordering",
    [
        (BindingStyle.OPEN, Ordering.ASYMMETRIC),
        (BindingStyle.CLOSED, Ordering.SYMMETRIC),
    ],
)
def test_per_kind_traffic_reconciles_with_net_hops(style, ordering):
    obs = Observability()
    request_reply_point(
        "mixed", 2, replicas=3, style=style, ordering=ordering,
        mode=Mode.ALL, requests=5, obs=obs,
    )
    reconciliation = reconcile_traffic(obs.metrics_snapshot())
    assert reconciliation  # the gc layer sent something
    for kind, (sent, hops) in reconciliation.items():
        assert sent == hops, f"{kind}: gc sent {sent} but net recorded {hops} hops"


# ---------------------------------------------------------------------------
# retransmit traffic classification (satellite fix)
# ---------------------------------------------------------------------------
def test_retransmissions_count_under_their_own_kind():
    topo = Topology()
    topo.add_site("lan", FixedLatency(200e-6), loss=0.15)
    c = Cluster(3, topology=topo, sites=["lan"] * 3, seed=11)
    config = GroupConfig(ordering=Ordering.SYMMETRIC, suspicion_timeout=2.0, flush_timeout=1.0)
    creator = c.service(0)
    sessions = [creator.create_group("g", config)]
    for name in c.names[1:]:
        sessions.append(c.services[name].join_group("g", c.names[0]))
    c.run(1.0)
    collectors = [Collector(s) for s in sessions]
    for i in range(10):
        for s in sessions:
            s.send(f"{s.member_id}-{i}")
    c.run(5.0)
    assert all(len(col.deliveries) == 30 for col in collectors)
    # every retransmitted frame is classified under its own kind, and the
    # count agrees with the channel layer's own
    counters = c.sim.obs.metrics.snapshot()["counters"]
    assert counters.get("gc.sent.retransmit", 0) == counters.get("gc.channel.retransmissions", 0) > 0
    # and every kind, repairs included, reconciles ±0 with the hops the
    # network counted, although the link dropped some of them
    assert counters["net.dropped"] > 0
    reconciliation = reconcile_traffic(c.sim.obs.metrics_snapshot())
    assert {"data", "null", "control", "retransmit"} <= set(reconciliation)
    for kind, (sent, hops) in reconciliation.items():
        assert sent == hops, f"{kind}: gc sent {sent} but net recorded {hops} hops"


# ---------------------------------------------------------------------------
# ticket batching + ack piggybacking metrics (tentpole counters)
# ---------------------------------------------------------------------------
def test_ticket_batching_and_piggyback_metrics():
    """A batching asymmetric group counts coalesced tickets under
    ``gc.tickets_batched`` and suppressed standalone acks under
    ``gc.channel.acks_piggybacked`` — and the per-kind ledgers still
    reconcile exactly."""
    from repro.groupcomm import Liveliness, OrderingConfig

    c = Cluster(4, seed=5)
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        liveliness=Liveliness.LIVELY,
        silence_period=30e-3,
        suspicion_timeout=300e-3,
        ordering_config=OrderingConfig(ticket_batch_max=4, ticket_batch_delay=2e-3),
    )
    creator = c.service(0)
    sessions = [creator.create_group("g", config)]
    for name in c.names[1:]:
        sessions.append(c.services[name].join_group("g", c.names[0]))
    c.run(1.0)
    collectors = [Collector(s) for s in sessions]
    for i in range(8):
        for s in sessions[1:]:  # non-sequencer senders need tickets
            s.send(f"{s.member_id}-{i}")
    c.run(2.0)
    assert all(len(col.deliveries) == 24 for col in collectors)
    counters = c.sim.obs.metrics.snapshot()["counters"]
    assert counters.get("gc.tickets_batched", 0) > 0
    assert counters.get("gc.channel.acks_piggybacked", 0) > 0
    # batching must cut ticket multicasts below one-per-remote-message
    fanout = len(c.names) - 1
    assert counters["gc.sent.ticket"] < 24 * fanout
    reconciliation = reconcile_traffic(c.sim.obs.metrics_snapshot())
    for kind, (sent, hops) in reconciliation.items():
        assert sent == hops, f"{kind}: gc sent {sent} but net recorded {hops} hops"


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
def test_bench_cli_trace_and_metrics_flags(capsys, tmp_path):
    from repro.bench.__main__ import main

    trace_path = tmp_path / "trace.jsonl"
    assert main(["table1_corba", "--trace", str(trace_path), "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "trace: wrote" in out
    assert "metrics (merged across runs)" in out
    records = read_jsonl(str(trace_path))
    assert records
    # run-namespaced trace ids keep traces from different runs apart
    assert all(":" in str(r["trace"]) for r in records)
