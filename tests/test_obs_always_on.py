"""Always-on observability: head sampling, the protocol flight recorder,
per-phase latency decomposition, metrics window diffs, and the offline
``python -m repro.obs`` CLI."""

import json
from functools import partial
from types import SimpleNamespace

import pytest

from repro.bench.harness import request_reply_deployment, request_reply_point
from repro.bench.workloads import ClosedLoopClient, run_until_done
from repro.bench.profiling import count_calls
from repro.core import BindingStyle, Mode
from repro.groupcomm import GroupConfig, Ordering
from repro.groupcomm.ordering import AsymmetricOrder
from repro.net import Network, Topology
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Observability,
    PhaseAccountant,
    TraceConfig,
    Tracer,
    build_trees,
    diff_snapshots,
    read_jsonl,
    render_metrics_table,
    render_timeline,
    write_jsonl,
)
from repro.obs import phases as phases_module
from repro.obs import tracer as tracer_module
from repro.obs.tracer import UNSAMPLED
from repro.scenario import run_scenario
from repro.sim import Simulator
from tests.conftest import Cluster
from tests.invariants import check_invariants, record_protocol
from tests.test_groupcomm_basic import build_group
from tests.test_invariant_sweep import sweep_spec


# ---------------------------------------------------------------------------
# head sampling
# ---------------------------------------------------------------------------
def test_trace_config_validation():
    assert TraceConfig().sample_rate == 1.0
    assert TraceConfig(sample_rate=0.25).sample_rate == 0.25
    with pytest.raises(ValueError):
        TraceConfig(sample_rate=1.5)
    with pytest.raises(ValueError):
        TraceConfig(sample_rate=-0.1)


def test_systematic_sampling_is_exact_not_probabilistic():
    tracer = Tracer(enabled=True, config=TraceConfig(sample_rate=0.25))
    verdicts = [tracer.start_span("root", parent=None) is not None for _ in range(8)]
    # an accumulator, not an RNG: exactly rate * n roots survive, and the
    # pattern is the same every run
    assert verdicts.count(True) == 2
    assert tracer.sampled_roots == 2
    assert tracer.unsampled_roots == 6
    again = Tracer(enabled=True, config=TraceConfig(sample_rate=0.25))
    assert verdicts == [again.start_span("r", parent=None) is not None for _ in range(8)]


def test_unsampled_root_suppresses_descendants_but_labels_flow():
    tracer = Tracer(enabled=True, config=TraceConfig(sample_rate=0.0))
    root = tracer.start_span("invoke", parent=None)  # head-sampled out
    assert root is None
    tracer.ctx = UNSAMPLED  # what a head-sampled-out root site pushes
    # downstream of an unsampled root: no spans, even explicit ones
    assert tracer.start_span("gc.send") is None
    tracer.event("ignored")  # must be a safe no-op
    tracer.ctx = None
    assert tracer.records() == []
    assert tracer.unsampled_roots == 1


def test_an_unsampled_root_costs_one_verdict():
    """Head-sampled out, an invocation costs the sampler's verdict and
    little else: every site below it reads ``UNSAMPLED`` and moves on."""

    def calls(obs):
        _point, counted = count_calls(lambda: request_reply_point(
            "lan", 2, replicas=3, style=BindingStyle.CLOSED,
            mode=Mode.ALL, requests=10, seed=5, obs=obs,
        ))
        return counted

    unsampled = Observability(trace=TraceConfig(sample_rate=0.0))
    extra = calls(unsampled) - calls(Observability())
    roots = unsampled.metrics_snapshot()["counters"]["obs.roots_unsampled"]
    assert roots > 0 and not unsampled.trace_records()
    assert extra <= 3 * roots, f"{extra / roots:.2f} calls per unsampled root"


def test_sampled_runs_are_deterministic_and_thinner():
    def run(rate):
        obs = Observability(trace=TraceConfig(sample_rate=rate))
        request_reply_point(
            "lan", 2, replicas=3, style=BindingStyle.OPEN,
            mode=Mode.ALL, requests=10, seed=5, obs=obs,
        )
        return obs.trace_records(), obs.metrics_snapshot()

    sampled_a, snap_a = run(0.2)
    sampled_b, snap_b = run(0.2)
    # same seed, same rate -> identical sampled span ids and metrics
    assert sampled_a == sampled_b
    assert snap_a == snap_b
    full, _snap = run(1.0)
    assert 0 < len(sampled_a) < len(full)
    counters = snap_a["counters"]
    assert counters["obs.roots_sampled"] > 0
    assert counters["obs.roots_unsampled"] > counters["obs.roots_sampled"]
    # every sampled invocation still forms a complete connected tree
    roots, children = build_trees(sampled_a)
    ids = {r["span"] for r in sampled_a}
    assert all(s["parent"] is None or s["parent"] in ids for s in sampled_a)
    invoke_roots = [r for r in roots if r["name"] == "invoke"]
    assert invoke_roots
    # sampled invocations keep their causal subtrees (sends held back by a
    # concurrent flush may detach, so "all" would overfit)
    assert any(children.get(r["span"]) for r in invoke_roots)
    names = {s["name"] for s in sampled_a}
    assert {"gc.send", "gc.deliver", "server.execute"} <= names


# ---------------------------------------------------------------------------
# partial traces through the exporters
# ---------------------------------------------------------------------------
def test_span_cap_truncation_round_trips_with_orphans(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer_module, "MAX_SPANS", 2)
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], enabled=True)
    root = tracer.start_span("invoke", parent=None)
    tracer.ctx = root
    kept = tracer.start_span("gc.send")
    dropped = tracer.start_span("net.hop")  # over the cap: not retained
    tracer.ctx = dropped
    orphan = tracer.start_span("gc.deliver")  # parent never exported
    tracer.ctx = None
    for span in (orphan, dropped, kept, root):
        tracer.end_span(span)
    assert tracer.dropped == 2
    records = tracer.records()
    assert len(records) == 2

    path = tmp_path / "partial.jsonl"
    assert write_jsonl(str(path), records) == 2
    loaded = read_jsonl(str(path))
    assert loaded == json.loads(json.dumps(records))
    # the orphaned child is promoted to a root instead of being lost
    roots, children = build_trees(loaded)
    assert {r["name"] for r in roots} == {"invoke"}
    assert [c["name"] for c in children[root.span_id]] == ["gc.send"]
    assert "invoke" in render_timeline(loaded)

    # the cap is observable: metrics_snapshot surfaces the drop counter
    obs = Observability(trace=True)
    obs.tracer.clock = lambda: 0.0
    for _ in range(3):
        obs.tracer.start_span("s", parent=None)
    assert obs.metrics_snapshot()["counters"]["obs.spans_dropped"] == 1


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------
def test_flight_rings_bound_per_node_and_merge_causally():
    flight = FlightRecorder(capacity=4)
    clock = SimpleNamespace(now=0.0)  # what a simulator offers: a ``now``
    flight.clock = clock
    for i in range(10):
        clock.now = i * 1e-3
        flight.record("n0", "send", "g", f"m{i}")
        flight.record("n1", "deliver", "g", f"m{i}")
    assert len(flight.events("n0")) == 4  # per-node ring capacity
    merged = flight.events()
    assert [e[0] for e in merged] == sorted(e[0] for e in merged)
    # the interleaving is preserved: send precedes its delivery
    kinds = [(e[2], e[3]) for e in merged]
    assert kinds[0] == ("n0", "send") and kinds[1] == ("n1", "deliver")

    excerpt = flight.excerpt(last=3)
    assert [e["seq"] for e in excerpt] == [e[0] for e in merged[-3:]]
    # the excerpt is JSON-clean and renders identically after a round-trip
    revived = json.loads(json.dumps(excerpt))
    assert FlightRecorder.render_excerpt(revived) == flight.render(last=3)
    assert "flight recorder: last 3 protocol events" in flight.render(last=3)

    flight.clear()
    assert len(flight) == 0
    assert flight.render() == "(flight recorder empty)"


FLIGHT_SPEC = {
    "name": "flight-smoke",
    "seed": 7,
    "topology": "lan",
    "settle": 1.0,
    "group": {"replicas": 3},
    "traffic": {
        "arrivals": {"kind": "poisson", "rate": 2.0},
        "churn": {"initial": 4},
        "duration": 2.0,
        "drain": 20.0,
    },
    "slos": [{"kind": "accounting", "name": "acct"}],
}


def test_failed_slo_report_attaches_causal_flight_excerpt():
    spec = dict(FLIGHT_SPEC)
    spec["slos"] = [
        {"kind": "latency", "name": "impossible", "stat": "p95", "max_ms": 1e-4}
    ]
    report = run_scenario(spec)
    assert not report["passed"]
    excerpt = report["flight_recorder"]
    assert excerpt, "a failing report must carry the protocol flight excerpt"
    seqs = [e["seq"] for e in excerpt]
    assert seqs == sorted(seqs)  # causally ordered
    assert {e["kind"] for e in excerpt} & {"send", "deliver", "ticket"}
    assert len({e["node"] for e in excerpt}) > 1  # merged across nodes
    json.dumps(excerpt)  # report stays JSON-serialisable

    # and a passing run stays lean: no excerpt attached
    assert "flight_recorder" not in run_scenario(FLIGHT_SPEC)


def test_invariant_violation_carries_flight_excerpt(monkeypatch):
    """A mutated protocol must fail post-mortem-first: the checker's output
    ends with the merged flight excerpt of the broken run."""
    original = AsymmetricOrder.on_tickets

    def sabotaged(self, tickets):
        original(self, list(reversed(tickets)))

    monkeypatch.setattr(AsymmetricOrder, "on_tickets", sabotaged)
    with record_protocol() as record:
        run_scenario(sweep_spec(7, "asymmetric", True, "none"))
    violations = check_invariants(record, total_order=True)
    assert violations
    assert "flight recorder" in violations[-1]
    assert "ticket" in violations[-1]


# ---------------------------------------------------------------------------
# per-phase latency decomposition
# ---------------------------------------------------------------------------
def test_phase_decomposition_reconciles_with_end_to_end_latency():
    # closed-style saturation-ish load: every invocation is decomposed into
    # queue/order/flush/execute/reply and the phase means must tile the
    # end-to-end mean (acceptance bar: within 1%; construction gives 0%)
    spec = {
        "name": "phase-reconcile",
        "seed": 11,
        "topology": "lan",
        "settle": 1.0,
        "group": {"replicas": 3, "style": "closed"},
        "traffic": {
            "arrivals": {"kind": "poisson", "rate": 20.0},
            "churn": {"initial": 6},
            "duration": 2.0,
            "drain": 20.0,
            "mode": "all",
        },
        "slos": [{"kind": "accounting", "name": "acct"}],
    }
    report = run_scenario(spec)
    assert report["passed"]
    breakdown = report["latency_breakdown"]
    assert breakdown is not None
    assert breakdown["end_to_end_mean_ms"] > 0
    assert breakdown["reconciliation_pct"] <= 1.0
    phases = breakdown["phases_ms"]
    assert set(phases) == {"queue", "order", "flush", "execute", "reply"}
    assert all(value >= 0.0 for value in phases.values())
    assert phases["execute"] > 0  # servant cost is never zero
    total = sum(phases.values())
    assert total == pytest.approx(breakdown["sum_of_phase_means_ms"])
    assert total == pytest.approx(breakdown["end_to_end_mean_ms"], rel=0.01)
    # the same decomposition is exported as inv.phase.* histograms
    hists = report["metrics"]["histograms"]
    e2e = hists["client.invoke_latency"]
    for name in phases:
        assert hists[f"inv.phase.{name}"]["count"] == e2e["count"]


def test_standalone_recorders_read_any_clock_with_a_now():
    """Bound to a simulator the recorders read its ``now``; any object with
    a ``now`` attribute serves, and an unbound one stamps 0.0."""
    assert FlightRecorder().clock.now == PhaseAccountant().clock.now == 0.0
    clock = SimpleNamespace(now=1.0)
    flight, phases = FlightRecorder(), PhaseAccountant()
    flight.clock = phases.clock = clock
    call = ("c0", 1)
    phases.begin(call)
    # arrived at 1.5, released by ordering at 2.0; executed from 2.0 to 2.5
    for now, hook, args in ((2.0, phases.on_delivered, ((1.5, 2.0),)),
                            (2.5, phases.on_executed, (2.0,))):
        clock.now = now
        hook(call, "s0", *args)
        flight.record("s0", hook.__name__)
    clock.now = 3.0
    assert phases.finish(call, "s0") == {
        "queue": 0.5, "order": 0.5, "flush": 0.0, "execute": 0.5, "reply": 0.5,
    }
    assert [(event[1], event[3]) for event in flight.events()] == [
        (2.0, "on_delivered"), (2.5, "on_executed"),
    ]


def test_evicting_the_last_flush_hold_clears_flush_pending(monkeypatch):
    """``flush_pending`` guards the send path's look inside each payload: a
    call evicted past ``MAX_CALLS`` with the only open flush hold must
    clear it, or every later send keeps looking."""
    monkeypatch.setattr(phases_module, "MAX_CALLS", 2)
    phases = PhaseAccountant()
    phases.begin("a")
    phases.on_flush_hold("a")
    assert phases.flush_pending is True
    phases.begin("b")
    phases.begin("c")  # evicts "a", and with it the hold
    assert phases.flush_pending is False


def test_cpu_queue_histogram_counts_every_submission_and_links_keep_none():
    sim = Simulator(seed=1)
    net = Network(sim, Topology.single_lan())
    a, b = net.new_node("a", "lan"), net.new_node("b", "lan")
    b.register("t", lambda *_: None)
    for i in range(3):
        a.send("b", "t", i, 100)  # one submission at a, one at b
    b.execute(1e-3, lambda: None)
    sim.run()
    snapshot = sim.obs.metrics_snapshot()
    assert snapshot["histograms"]["node.cpu_queue_delay"]["count"] == 3 + 3 + 1
    assert "net.link_queue_delay" not in snapshot["histograms"]


def test_peer_workloads_have_no_phase_breakdown():
    report = run_scenario(
        {
            "name": "peer-phases",
            "seed": 3,
            "topology": "lan",
            "settle": 1.5,
            "group": {"replicas": 3, "liveliness": "lively", "suspicion_timeout": 2.0},
            "traffic": {
                "arrivals": {"kind": "poisson", "rate": 0.5},
                "churn": {"initial": 3},
                "duration": 2.0,
                "drain": 20.0,
                "workload": "peer",
                "timeout": 10.0,
            },
            "slos": [{"kind": "accounting", "name": "acct"}],
        }
    )
    assert report["passed"]
    assert report["latency_breakdown"] is None  # no client invocations


def test_scenario_is_traced_through_an_injected_observability():
    """Tracing is not a spec field: ``run_scenario(spec, obs=...)`` takes the
    sampling policy, and the sampler never perturbs the run it watches."""
    obs = Observability(trace=TraceConfig(sample_rate=0.5))
    traced = run_scenario(FLIGHT_SPEC, obs=obs)
    counters = traced["metrics"]["counters"]
    assert counters["obs.roots_sampled"] > 0 and counters["obs.roots_unsampled"] > 0
    assert counters["obs.spans_dropped"] == 0
    assert obs.trace_records()
    plain = run_scenario(FLIGHT_SPEC)
    assert plain["metrics"]["counters"]["obs.roots_sampled"] == 0
    assert traced["sim"] == plain["sim"] and traced["traffic"] == plain["traffic"]


# ---------------------------------------------------------------------------
# metrics snapshots: window diffs and table alignment
# ---------------------------------------------------------------------------
def test_snapshot_diff_isolates_the_window():
    registry = MetricsRegistry()
    registry.counter("gc.sent.data").inc(10)
    registry.gauge("depth").set(4.0)
    registry.histogram("lat").record(1.0)
    before = registry.snapshot()
    registry.counter("gc.sent.data").inc(5)
    registry.counter("gc.sent.null").inc(2)  # appears mid-window
    registry.gauge("depth").set(1.5)
    registry.histogram("lat").record(3.0)
    delta = registry.diff(before)
    assert delta["counters"]["gc.sent.data"] == 5
    assert delta["counters"]["gc.sent.null"] == 2
    assert delta["gauges"]["depth"] == -2.5
    window = delta["histograms"]["lat"]
    assert window["count"] == 1
    assert window["mean"] == pytest.approx(3.0)  # window mean, not cumulative
    assert diff_snapshots(before, before)["counters"]["gc.sent.data"] == 0


def test_metrics_table_aligns_negative_and_missing_values():
    registry = MetricsRegistry()
    registry.counter("gc.sent.data").inc(10)
    registry.counter("gc.sent.null").inc(2)
    registry.gauge("depth").set(4.0)
    registry.histogram("lat").record(1.0)
    before = registry.snapshot()
    registry.counter("gc.sent.null").inc(990)
    registry.gauge("depth").set(1.0)
    registry.histogram("lat").record(2.0)
    table = render_metrics_table(registry.diff(before))
    lines = {
        line.strip().split()[0]: line
        for line in table.splitlines()
        if line.startswith("  ")
    }
    # zero and wide deltas end in the same column (right-aligned values)
    assert lines["gc.sent.data"].rstrip().endswith("  0")
    assert lines["gc.sent.null"].rstrip().endswith("990")
    assert len(lines["gc.sent.data"].rstrip()) == len(lines["gc.sent.null"].rstrip())
    assert lines["depth"].rstrip().endswith("-3")
    # window histogram rows carry count+mean; percentiles render as dashes
    assert lines["lat"].count("-") >= 4
    assert "2.000000" in lines["lat"]


# ---------------------------------------------------------------------------
# pulled instruments: read when a snapshot is taken, by every read path
# ---------------------------------------------------------------------------
def test_pulled_instruments_sum_their_sources_on_every_read_path():
    registry = MetricsRegistry()
    state = {"a": 3, "b": 4}
    registry.pull_counter("x", lambda: state["a"])
    registry.pull_counter("x", lambda: state["b"])
    registry.pull_gauge("g", lambda: state["a"])
    before = registry.snapshot()
    assert before["counters"]["x"] == 7 and before["gauges"]["g"] == 3.0
    state["a"] = 10
    assert registry.counter_value("x") == 14
    delta = registry.diff(before)
    assert delta["counters"]["x"] == 7
    assert delta["gauges"]["g"] == 7.0


def test_a_window_diff_sees_the_tracer_and_kernel_values():
    """``MetricsRegistry.diff`` snapshots the registry itself, so what
    ``Observability.metrics_snapshot`` used to set at read time (roots,
    dropped spans, the kernel's clock and event count) must be in the
    registry's own reads, or a window reports zero for it."""
    env, bindings = request_reply_deployment("lan", 2, obs=Observability(trace=True))
    obs = env.sim.obs
    before = obs.metrics_snapshot()
    events, now = env.sim.events_processed, env.sim.now
    workers = [
        ClosedLoopClient(env.sim, binding, operation="draw", requests=5, warmup=0)
        for binding in bindings
    ]
    run_until_done(env.sim, [w.done for w in workers], deadline=env.sim.now + 60.0)
    delta = obs.metrics.diff(before)
    assert delta["counters"]["obs.roots_sampled"] == 10
    assert delta["counters"]["obs.spans_dropped"] == 0
    assert delta["gauges"]["sim.events_processed"] == env.sim.events_processed - events
    assert delta["gauges"]["sim.events_processed"] > 0
    assert delta["gauges"]["sim.virtual_time"] == env.sim.now - now
    assert obs.metrics.counter_value("obs.roots_sampled") == obs.tracer.sampled_roots
    assert obs.metrics_snapshot() == obs.metrics.snapshot()


def test_gc_delivered_never_drops_across_a_close_or_a_restart():
    env, bindings = request_reply_deployment("lan", 1)
    delivered = partial(env.sim.obs.metrics.counter_value, "gc.delivered")

    def calls(n):
        worker = ClosedLoopClient(env.sim, bindings[0], operation="draw",
                                  requests=n, warmup=0)
        run_until_done(env.sim, [worker.done], deadline=env.sim.now + 60.0)

    calls(5)
    server = env.services["s2"].servers["rand"]
    dead = server.group
    seen = delivered()
    assert dead.stats.delivered > 0
    env.net.crash("s2")
    env.net.recover("s2")
    restarted = env.sim.now
    server.restart()  # closes every session of the dead incarnation
    assert dead.state == "closed"
    assert delivered() == seen
    calls(5)  # outstanding traffic has the survivors suspect the dead s2
    # the rejoin waits out one join timeout while the survivors still hold
    # s2, then the second attempt gets in within a second
    config = server.config
    join_timeout = config.suspicion_timeout + 2 * config.flush_timeout + 0.5
    run_until_done(env.sim, [server.ready], deadline=restarted + join_timeout + 1.0)
    assert not server.ready.failed  # s2 is back in
    assert delivered() > seen


def test_a_closed_session_leaves_the_flow_gauges():
    c = Cluster(3)
    config = GroupConfig(ordering=Ordering.ASYMMETRIC, send_window=2, flow_max_queue=3)
    sessions = build_group(c, config)
    for i in range(5):  # fills the window (2) and the queue (3)
        sessions[0].send(i)
    gauges = c.sim.obs.metrics.snapshot()["gauges"]
    assert (gauges["gc.flow.in_flight"], gauges["gc.flow.queued"]) == (2.0, 3.0)
    sessions[0]._close()
    gauges = c.sim.obs.metrics.snapshot()["gauges"]
    assert (gauges["gc.flow.in_flight"], gauges["gc.flow.queued"]) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# offline CLI: python -m repro.obs
# ---------------------------------------------------------------------------
def _traced_run(tmp_path):
    obs = Observability(trace=True)
    request_reply_point(
        "lan", 1, replicas=3, style=BindingStyle.OPEN,
        mode=Mode.ALL, requests=3, obs=obs,
    )
    path = tmp_path / "trace.jsonl"
    obs.dump_trace(str(path))
    return obs, path


def test_obs_cli_timeline_and_top(tmp_path, capsys):
    from repro.obs.__main__ import main

    _obs, path = _traced_run(tmp_path)
    assert main(["timeline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "invoke" in out and "--- trace" in out

    records = read_jsonl(str(path))
    one_trace = str(records[0]["trace"])
    assert main(["timeline", str(path), "--trace", one_trace]) == 0
    out = capsys.readouterr().out
    assert out.count("--- trace") == 1
    assert main(["timeline", str(path), "--trace", "nonexistent"]) == 1

    assert main(["top", str(path), "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "span" in out and "total_ms" in out
    assert "gc.send" in out or "net.hop" in out
    assert len([l for l in out.splitlines() if l and not l.startswith("(")]) <= 6


def test_obs_cli_diff(tmp_path, capsys):
    from repro.obs.__main__ import main

    registry = MetricsRegistry()
    registry.counter("gc.sent.data").inc(3)
    before = tmp_path / "before.json"
    before.write_text(json.dumps(registry.snapshot()))
    registry.counter("gc.sent.data").inc(4)
    after = tmp_path / "after.json"
    after.write_text(json.dumps(registry.snapshot()))
    assert main(["diff", str(before), str(after)]) == 0
    out = capsys.readouterr().out
    assert "gc.sent.data" in out and "7" not in out.split() and "4" in out.split()


def test_obs_cli_flight_renders_report_excerpt(tmp_path, capsys):
    from repro.obs.__main__ import main

    spec = dict(FLIGHT_SPEC)
    spec["slos"] = [
        {"kind": "latency", "name": "impossible", "stat": "p95", "max_ms": 1e-4}
    ]
    report = run_scenario(spec)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["flight", str(path)]) == 0
    out = capsys.readouterr().out
    assert "flight recorder: last" in out

    passing = tmp_path / "ok.json"
    passing.write_text(json.dumps(run_scenario(FLIGHT_SPEC)))
    assert main(["flight", str(passing)]) == 1


_REPORT = {"passed": True, "metrics": {"counters": {"x": 1}, "gauges": {}, "histograms": {}}}
#: per subcommand, an artefact of another command's shape
_WRONG_SHAPE = {
    "timeline": json.dumps(_REPORT, indent=2),  # a scenario report, not span JSONL
    "top": json.dumps(_REPORT, indent=2),
    "diff": json.dumps([_REPORT, _REPORT]),  # what ``scenario run A B -o`` writes
    "flight": '{"trace": 1, "name": "invoke", "start": 0.0}\n' * 2,  # span JSONL
}


@pytest.mark.parametrize("command", sorted(_WRONG_SHAPE))
def test_obs_cli_names_an_artefact_of_the_wrong_shape_and_exits_2(command, tmp_path, capsys):
    from repro.obs.__main__ import main

    path = tmp_path / "artefact"
    path.write_text(_WRONG_SHAPE[command])
    good = tmp_path / "report.json"
    good.write_text(json.dumps(_REPORT))
    argv = [command, str(path)] + ([str(good)] if command == "diff" else [])
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err


def test_obs_cli_timeline_attr_filter(tmp_path, capsys):
    from repro.obs.__main__ import main

    records = [
        {"trace": 1, "span": 1, "parent": None, "name": "invoke", "node": "c0",
         "start": 0.0, "end": 1e-3, "attrs": {"shard": "s0", "op": "put"}},
        {"trace": 1, "span": 2, "parent": 1, "name": "gc.send", "node": "c0",
         "start": 0.0, "end": 5e-4},
        {"trace": 2, "span": 3, "parent": None, "name": "invoke", "node": "c0",
         "start": 2e-3, "end": 3e-3, "attrs": {"shard": "s1"}},
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert main(["timeline", str(path), "--attr", "shard=s1"]) == 0
    out = capsys.readouterr().out
    assert out.count("--- trace") == 1 and "shard=s1" in out
    # children of a matching trace ride along even without the attr
    assert main(["timeline", str(path), "--attr", "shard=s0"]) == 0
    out = capsys.readouterr().out
    assert "gc.send" in out and "shard=s1" not in out
    assert main(["timeline", str(path), "--attr", "shard=nope"]) == 1
    with pytest.raises(SystemExit):
        main(["timeline", str(path), "--attr", "malformed"])


def test_obs_cli_flight_shard_group_node_filters(tmp_path, capsys):
    from repro.obs.__main__ import main

    excerpt = [
        {"seq": 1, "t": 0.01, "node": "s0", "kind": "view",
         "group": "svc:kv#0", "detail": ""},
        {"seq": 2, "t": 0.02, "node": "s1", "kind": "send",
         "group": "svc:kv#1", "detail": "gseq=1"},
        {"seq": 3, "t": 0.03, "node": "c0", "kind": "deliver",
         "group": "cs:c0:kv#1:2", "detail": ""},
        {"seq": 4, "t": 0.04, "node": "s0", "kind": "send",
         "group": "svc:kv", "detail": ""},
    ]
    path = tmp_path / "excerpt.json"
    path.write_text(json.dumps(excerpt))
    # --shard matches the shard's svc group and its cs groups, nothing else
    assert main(["flight", str(path), "--shard", "1"]) == 0
    out = capsys.readouterr().out
    assert "svc:kv#1" in out and "cs:c0:kv#1:2" in out
    assert "svc:kv#0" not in out and "svc:kv:send" not in out
    assert main(["flight", str(path), "--group", "kv#0"]) == 0
    out = capsys.readouterr().out
    assert "svc:kv#0" in out and "kv#1" not in out
    assert main(["flight", str(path), "--node", "c0"]) == 0
    out = capsys.readouterr().out
    assert "cs:c0:kv#1:2" in out and "svc:kv#0" not in out
    assert main(["flight", str(path), "--shard", "7"]) == 1


# ---------------------------------------------------------------------------
# bench CLI flag
# ---------------------------------------------------------------------------
def test_bench_cli_trace_sample_flag(tmp_path, capsys):
    from repro.bench.__main__ import main

    full_path = tmp_path / "full.jsonl"
    assert main(["table1_corba", "--trace", str(full_path)]) == 0
    capsys.readouterr()
    sampled_path = tmp_path / "sampled.jsonl"
    # --trace-sample implies --trace (default trace.jsonl), here explicit
    assert main(
        ["table1_corba", "--trace", str(sampled_path), "--trace-sample", "0.1"]
    ) == 0
    capsys.readouterr()
    full = read_jsonl(str(full_path))
    sampled = read_jsonl(str(sampled_path))
    assert 0 < len(sampled) < len(full)
    with pytest.raises(SystemExit):
        main(["table1_corba", "--trace-sample", "1.5"])
