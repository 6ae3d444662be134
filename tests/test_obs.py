"""Observability layer tests: tracer, metrics, exporters, and the
end-to-end causal traces of the paper's fig. 9 m1-m6 invocation path."""

import ast
import io
import json
import math
import pathlib
import random
import re

import pytest

from repro.bench.harness import request_reply_point
from repro.core import BindingStyle, Mode
from repro.groupcomm import GroupConfig, Ordering
from repro.groupcomm.messages import DataMsg
from repro.net import FixedLatency, Topology
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Observability,
    TraceConfig,
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
from repro.obs.metrics import CHUNK, SUBBUCKETS, ZERO_BUCKET
from tests.conftest import Cluster, Collector

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    assert gauge.value == 2.5


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


def eager_fold(values):
    """The reference: ``count``, ``total``, ``min``, ``max`` and ``buckets``
    of ``values`` recorded one at a time."""
    count, total, low, high, buckets = 0, 0.0, None, None, {}
    for value in values:
        count += 1
        total += value
        if low is None or value < low:
            low = value
        if high is None or value > high:
            high = value
        if value <= 0.0:
            index = ZERO_BUCKET
        else:
            mantissa, exponent = math.frexp(value)
            sub = min(int((mantissa - 0.5) * 2 * SUBBUCKETS), SUBBUCKETS - 1)
            index = exponent * SUBBUCKETS + sub
        buckets[index] = buckets.get(index, 0) + 1
    return count, total, low, high, buckets


def eager_histogram(values):
    hist = Histogram("eager")
    hist.count, hist.total, hist.min, hist.max, hist.buckets = eager_fold(values)
    return hist


def awkward_values(n):
    """Values whose float sum depends on the order of the additions, with
    zeros, negatives, subnormals and mantissas at both ends of an octave."""
    rng = random.Random(n)
    edges = [0.0, -0.0, -3.5, 5e-324, 2.2e-308, 1.0, math.nextafter(1.0, 0.0),
             math.nextafter(2.0, 0.0), 1e16, 0.1, -1e16, 7]
    return [
        edges[i % len(edges)] if i % 5 == 0 else rng.lognormvariate(-7, 3)
        for i in range(n)
    ]


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_a_chunked_histogram_equals_one_folded_eagerly(n):
    values = awkward_values(n)
    hist = Histogram("chunked")
    for i, value in enumerate(values):
        hist.record(value)
        if i % 97 == 0:  # a read mid-chunk folds early; later records go on
            count, total, low, high, _buckets = eager_fold(values[: i + 1])
            assert (hist.count, hist.total, hist.min, hist.max) == (count, total, low, high)
    count, total, low, high, buckets = eager_fold(values)
    assert hist.count == count == n
    assert hist.total == total  # the same additions in the same order
    assert (hist.min, hist.max) == (low, high)
    assert hist.buckets == buckets
    assert hist.summary() == eager_histogram(values).summary()
    assert hist.mean == total / count


def test_a_fresh_histogram_takes_assigned_attributes():
    """The e2e window histogram pattern: buckets, count, min and max of a
    fresh histogram are assigned rather than recorded."""
    values = awkward_values(2 * CHUNK + 3)
    total = Histogram("total")
    for value in values:
        total.record(value)
    window = Histogram("window")
    for index, seen in total.buckets.items():
        window.buckets[index] = seen
        window.count += seen
    window.min, window.max = 0.0, total.max or 0.0
    assert window.count == len(values)
    assert window.buckets == eager_fold(values)[4]
    assert window.percentile(0.99) == total.percentile(0.99)
    window.record(1.0)  # a record after the assignments folds on top of them
    assert window.count == len(values) + 1
    assert window.min == 0.0


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
    tracer.event("ignored")  # must be a safe no-op
    assert tracer.ctx is None
    assert tracer.records() == []


def test_ambient_parenting_and_stash():
    """The ambient span parents new spans; a span carried on a ``DataMsg``
    parents a delivery whatever the ambient value is."""
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], enabled=True)
    root = tracer.start_span("root", parent=None)
    tracer.ctx = root
    child = tracer.start_span("child")
    tracer.ctx = None
    assert child.parent_id == root.span_id
    assert child.trace_id == root.trace_id
    msg = DataMsg("g", "a", 1, 1, 1, "data", None, None, None, {})
    assert msg.span is None  # nothing recorded the send yet
    msg.span = root
    tracer.ctx = child  # the unblocking traffic's span is not the origin
    delivered = tracer.start_span("deliver", parent=msg.span)
    tracer.ctx = None
    assert delivered.parent_id == root.span_id
    assert "span" not in DataMsg._fields  # carried by reference, never marshalled


# ---------------------------------------------------------------------------
# exporters: JSONL round-trip and renderers
# ---------------------------------------------------------------------------
def _sample_records():
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], enabled=True)
    root = tracer.start_span("invoke", kind="client", node="c0", attrs={"op": "draw"})
    tracer.ctx = root
    clock[0] = 0.001
    send = tracer.start_span("gc.send", node="c0")
    tracer.event("manager.forward", span=send, mode="all")
    clock[0] = 0.002
    tracer.end_span(send)
    tracer.ctx = None
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


@pytest.mark.parametrize("rate", [1.0, 0.2])
def test_deliveries_parent_on_their_origin_send(rate):
    """Every ``gc.deliver`` hangs off the ``gc.send`` of the same message
    (group, sender, gseq), not off the traffic that unblocked its ordering."""
    obs = Observability(trace=TraceConfig(sample_rate=rate))
    request_reply_point(
        "lan", 2, replicas=3, style=BindingStyle.OPEN,
        mode=Mode.ALL, requests=10, seed=5, obs=obs,
    )
    by_id = {s["span"]: s for s in obs.trace_records()}
    deliveries = [s for s in by_id.values() if s["name"] == "gc.deliver"]
    assert deliveries
    for deliver in deliveries:
        send = by_id[deliver["parent"]]
        assert send["name"] == "gc.send"
        assert (send["attrs"]["group"], send["node"], send["attrs"]["gseq"]) == (
            deliver["attrs"]["group"], deliver["attrs"]["sender"], deliver["attrs"]["gseq"]
        )


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


def test_every_nso_frame_travels_under_the_kind_its_content_names(monkeypatch):
    """Pins the traffic-kind mapping its senders supply: over a lossy link,
    with a join, a leave and a crash, every NSO frame's ``net_kind`` follows
    from what it carries, and a second send of a channel sequence number
    is a retransmission."""
    from repro.groupcomm import Liveliness, OrderingConfig
    from repro.groupcomm.messages import (
        ChanAck, ChanData, ChanNack, ChanReset, FlushOk, FlushReq, JoinReq,
        LeaveReq, SuspectMsg, TicketBatchMsg, TicketMsg, ViewInstall,
    )
    from repro.orb.orb import ORB

    frames = []
    invoke = ORB.invoke

    def recording_invoke(self, target, operation, args=(), oneway=False, timeout=None, net_kind=None):
        if operation == "receive":
            frames.append((self.node.name, target.node, args[1], net_kind))
        return invoke(self, target, operation, args, oneway, timeout, net_kind)

    monkeypatch.setattr(ORB, "invoke", recording_invoke)
    topo = Topology()
    topo.add_site("lan", FixedLatency(200e-6), loss=0.1)
    c = Cluster(5, topology=topo, sites=["lan"] * 5, seed=7)
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        liveliness=Liveliness.LIVELY,
        silence_period=30e-3,
        suspicion_timeout=300e-3,
        flush_timeout=1.0,
        ordering_config=OrderingConfig(ticket_batch_max=4, ticket_batch_delay=2e-3),
    )
    sessions = [c.service(0).create_group("g", config)]
    for name in c.names[1:]:
        sessions.append(c.services[name].join_group("g", c.names[0]))
    c.run(2.0)
    for i in range(6):
        for s in sessions[1:]:
            s.send(f"{s.member_id}-{i}")
    c.run(1.0)
    sessions[1].send("alone")  # a batch of one goes out as a TicketMsg
    c.run(1.0)
    sessions[4].leave()
    c.run(2.0)
    c.net.crash(c.names[1])  # the others suspect it and tell the coordinator
    c.run(3.0)
    assert sessions[0].view.members == [c.names[0], c.names[2], c.names[3]]

    membership = {JoinReq, LeaveReq, SuspectMsg, FlushReq, FlushOk, ViewInstall}
    first_sends = set()
    seen = set()
    for src, dst, frame, kind in frames:
        cls = type(frame)
        if cls is not ChanData:
            assert cls in (ChanAck, ChanNack, ChanReset) and kind == "control"
            seen.add(cls)
            continue
        inner = frame.inner
        seen.add(type(inner))
        if (src, dst, frame.seq) in first_sends:
            assert kind == "retransmit", (src, dst, frame.seq, inner)
            seen.add("retransmit")
            continue
        first_sends.add((src, dst, frame.seq))
        if type(inner) is DataMsg:
            assert kind == inner.kind
        elif type(inner) in (TicketMsg, TicketBatchMsg):
            assert kind == "ticket"
        else:
            assert type(inner) in membership and kind == "membership"
    assert seen >= membership | {
        DataMsg, TicketMsg, TicketBatchMsg, ChanAck, ChanNack, "retransmit"
    }


def test_a_crashed_members_probes_count_no_retransmission():
    """A crashed member's channel probe timers keep firing over the frames
    it never got acked, but a dead node sends nothing: the channel counts a
    retransmission only when the frame leaves a live node, so the counter
    still equals ``gc.sent.retransmit``."""
    c = Cluster(3, seed=3)
    config = GroupConfig(ordering=Ordering.SYMMETRIC, suspicion_timeout=0.3, flush_timeout=0.3)
    sessions = [c.service(0).create_group("g", config)]
    for name in c.names[1:]:
        sessions.append(c.services[name].join_group("g", c.names[0]))
    c.run(1.0)
    victim = sessions[2]
    for i in range(3):
        victim.send(f"last-{i}")
    channels = c.service(2).channels
    assert all(channels.outstanding_to(peer) > 0 for peer in c.names[:2])
    c.net.crash(c.names[2])
    c.run(90.0)
    # the probes fired on the dead node until they gave up on the backlog
    assert all(channels.outstanding_to(peer) == 0 for peer in c.names[:2])
    counters = c.sim.obs.metrics.snapshot()["counters"]
    assert counters.get("gc.sent.retransmit", 0) == counters.get("gc.channel.retransmissions", 0)


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


# ---------------------------------------------------------------------------
# the metric catalogue: docs/OBSERVABILITY.md's Metrics table against the
# instruments src/repro registers
# ---------------------------------------------------------------------------
_REGISTERS = re.compile(
    r"\.(?:counter|gauge|histogram|counters|pull_counter|pull_gauge)\(\s*(f?)\"([^\"]+)\""
)


def _emitted_names():
    """Every instrument name registered under ``src/repro``, as a literal or
    a prefix: an f-string is cut at its first field and ``counters`` takes
    a prefix, and both end in ``*``."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for fstring, name in _REGISTERS.findall(path.read_text()):
            if fstring:
                name = name.split("{", 1)[0] + "*"
            elif name.endswith("."):
                name += "*"
            names.add(name)
    return names


def _documented_names():
    """The backticked names in the first column of the Metrics table, with
    ``<kind>``, ``<phase>`` and an ``sN`` component read as ``*``."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = text.split("\n## Metrics\n", 1)[1].split("\n#", 1)[0]
    names = set()
    for row in section.splitlines():
        if row.startswith("| `"):
            for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
                name = re.sub(r"<(kind|phase)>$", "*", name)
                names.add(re.sub(r"\.sN$", ".*", name))
    return names


def test_the_metrics_table_names_every_instrument_and_no_other():
    emitted, documented = _emitted_names(), _documented_names()
    assert len(emitted) > 50
    assert sorted(emitted - documented) == [], "emitted but not documented"
    assert sorted(documented - emitted) == [], "documented but never emitted"


# ---------------------------------------------------------------------------
# the span and flight-event catalogues: docs/OBSERVABILITY.md's tables
# against the start_span and flight.record calls under src/repro
# ---------------------------------------------------------------------------
def _emitted_literals(method, position, receiver=None):
    """The string literal each ``.<method>(`` call under ``src/repro`` passes
    at ``position``, on an attribute named ``receiver`` when one is given
    (a flight recorder's ``record``, not a histogram's).  Every such call
    must pass a literal, or the tables could not be checked."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for call in ast.walk(ast.parse(path.read_text())):
            func = getattr(call, "func", None)
            if (
                isinstance(func, ast.Attribute)
                and func.attr == method
                and receiver in (None, getattr(func.value, "attr", None))
            ):
                arg = call.args[position]
                assert isinstance(arg, ast.Constant), f"{path}: {ast.dump(arg)}"
                names.add(arg.value)
    return names


def _table_names(heading):
    """The backticked names in the first column of the table that follows
    ``heading`` in docs/OBSERVABILITY.md."""
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = text.split(heading, 1)[1].split("\n#", 1)[0]
    names = set()
    for row in section.splitlines():
        if row.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    return names


def test_the_span_and_flight_tables_name_every_emitted_name_and_no_other():
    spans = _emitted_literals("start_span", 0)
    kinds = _emitted_literals("record", 1, receiver="_flight")
    assert {"invoke", "gc.send"} <= spans and {"send", "shed"} <= kinds
    assert spans == _table_names("| span | what it covers |")
    assert kinds == _table_names("| kind | recorded when | detail |")
