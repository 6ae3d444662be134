"""Overload control: admission, retry-after, shedding, degradation SLOs."""

import json
import random

import pytest

from repro.bench.workloads import run_until_done
from repro.core import BindingStyle, Mode
from repro.errors import Overloaded
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.overload import AdmissionConfig, AdmissionController
from repro.overload import admission as admission_module
from repro.recovery import RetryPolicy
from repro.scenario import (
    FaultEvent,
    FaultSchedule,
    OpenLoopGenerator,
    PoissonArrivals,
    Population,
    SloContext,
    build_slos,
    run_scenario,
)
from repro.scenario.traffic import TrafficStats
from repro.sim import Simulator
from tests.core_helpers import AppCluster, Counter

FAST = GroupConfig(
    ordering=Ordering.ASYMMETRIC,
    liveliness=Liveliness.LIVELY,
    silence_period=20e-3,
    suspicion_timeout=100e-3,
)


# ---------------------------------------------------------------------------
# AdmissionConfig
# ---------------------------------------------------------------------------
class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_inflight=-1)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            AdmissionConfig.from_dict({"max_inflight": 4, "bogus": 1})

    def test_round_trips_through_dict(self):
        cfg = AdmissionConfig(max_inflight=8)
        assert AdmissionConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# RetryPolicy.retry_after_delay
# ---------------------------------------------------------------------------
class TestRetryAfterDelay:
    POLICY = RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.5)

    def test_hint_replaces_exponential_envelope(self):
        rng = random.Random(1)
        for _ in range(100):
            d = self.POLICY.retry_after_delay(0.2, attempt=1, rng=rng)
            # jittered around the hint: 0.2 * [0.75, 1.25)
            assert 0.2 * 0.75 <= d <= 0.2 * 1.25

    def test_hint_is_capped_and_floored(self):
        rng = random.Random(1)
        for _ in range(100):
            # the envelope caps at max_delay and floors at base_delay
            assert 0.5 * 0.75 <= self.POLICY.retry_after_delay(10.0, 1, rng) <= 0.5 * 1.25
            assert 0.05 * 0.75 <= self.POLICY.retry_after_delay(1e-4, 1, rng) <= 0.05 * 1.25

    def test_nonpositive_hint_falls_back_to_backoff(self):
        rng_a, rng_b = random.Random(7), random.Random(7)
        assert self.POLICY.retry_after_delay(0.0, 2, rng_a) == self.POLICY.delay(
            2, rng_b
        )


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------
class TestAdmissionController:
    def make(self, **kwargs):
        sim = Simulator(seed=1)
        return sim, AdmissionController(sim, AdmissionConfig(**kwargs), name="t")

    def test_inflight_bound_sheds_and_release_reopens(self):
        sim, adm = self.make(max_inflight=2)
        assert adm.try_admit() is None
        assert adm.try_admit() is None
        hint = adm.try_admit()
        assert hint == pytest.approx(0.05 * 4.0)  # full pressure: 4x base
        metrics = sim.obs.metrics
        assert metrics.counter("overload.admitted").value == 2
        assert metrics.counter("overload.shed").value == 1
        assert metrics.gauge("overload.inflight").value == 2
        adm.release()
        assert adm.try_admit() is None
        adm.release()
        adm.release()
        adm.release()  # over-release never goes negative
        assert adm.inflight >= 0
        assert metrics.gauge("overload.inflight").value >= 0

    def test_pushback_sheds_with_pressure_scaled_hint(self):
        _sim, adm = self.make(max_inflight=0)
        assert adm.try_admit(pushback=0.5) is None  # below threshold
        hint = adm.try_admit(pushback=0.95)
        assert hint == pytest.approx(0.05 * (1.0 + 3.0 * 0.95))

    def test_everything_disabled_admits_all(self):
        # no inflight bound: only saturated pushback can shed
        _sim, adm = self.make(max_inflight=0)
        for _ in range(1000):
            assert adm.try_admit(pushback=0.9) is None

    def test_reset_clears_inflight_and_shedding(self):
        sim, adm = self.make(max_inflight=1)
        assert adm.try_admit() is None
        assert adm.try_admit() is not None
        adm.reset()
        assert adm.inflight == 0
        assert sim.obs.metrics.gauge("overload.inflight").value == 0
        assert adm.try_admit() is None


# ---------------------------------------------------------------------------
# end-to-end: shed, retry, exactly-once
# ---------------------------------------------------------------------------
def test_client_side_shed_fails_fast_with_retry_after():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter, config=FAST)
    binding = c.client(0).bind(
        "svc",
        style=BindingStyle.CLOSED,
        liveliness=Liveliness.LIVELY,
        suspicion_timeout=100e-3,
        admission=AdmissionConfig(max_inflight=1),
    )
    c.run(1.0)
    assert binding.ready.done

    first = binding.invoke("incr", (1,), mode=Mode.FIRST, timeout=5.0)
    second = binding.invoke("incr", (1,), mode=Mode.FIRST, timeout=5.0)
    # the second call is shed synchronously: nothing reached the wire
    assert second.done and second.failed
    assert isinstance(second.exception, Overloaded)
    assert second.exception.retry_after > 0
    c.run(2.0)
    assert first.done and not first.failed
    # the slot freed by completion admits the next call
    third = binding.invoke("incr", (1,), mode=Mode.FIRST, timeout=5.0)
    c.run(2.0)
    assert third.done and not third.failed


def tiny_queue_binding(cluster, **kwargs):
    """A closed binding whose client/server session holds one message in
    flight and one queued: the third back-to-back send overflows."""
    binding = cluster.client(0).bind(
        "svc", style=BindingStyle.CLOSED, send_window=1, flow_max_queue=1, **kwargs
    )
    cluster.run(1.0)
    assert binding.ready.done
    return binding


def handed_to_transport(cluster):
    counters = cluster.sim.obs.metrics.snapshot()["counters"]
    return sum(v for name, v in counters.items() if name.startswith("gc.sent."))


def test_send_queue_overflow_sheds_at_the_source():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter)
    binding = tiny_queue_binding(c)
    first = binding.invoke("incr", (1,), mode=Mode.ALL, timeout=5.0)
    second = binding.invoke("incr", (1,), mode=Mode.ALL, timeout=5.0)
    before = handed_to_transport(c)
    third = binding.invoke("incr", (1,), mode=Mode.ALL, timeout=5.0)
    # no retry policy: fails at once with the default hint, and not one
    # frame of it was handed to the transport
    assert third.failed and isinstance(third.exception, Overloaded)
    assert third.exception.retry_after == pytest.approx(0.2)
    assert handed_to_transport(c) == before
    c.run(5.0)
    assert first.done and not first.failed and second.done and not second.failed
    assert {s.servant.value for s in servers} == {2}  # the shed call ran nowhere


def test_send_queue_overflow_counts_as_a_shed_without_a_policy():
    """A full send queue at a binding sheds like one at a request manager:
    ``overload.shed`` counts it, with or without an admission policy."""
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter)
    binding = tiny_queue_binding(c)
    futures = [binding.invoke("incr", (1,), mode=Mode.ALL, timeout=5.0) for _ in range(3)]
    assert futures[2].failed and isinstance(futures[2].exception, Overloaded)
    assert c.sim.obs.metrics.counter_value("overload.shed") == 1
    c.run(5.0)
    assert c.sim.obs.metrics.counter_value("overload.shed") == 1


def test_send_queue_overflow_retries_under_the_same_call_number():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter)
    binding = tiny_queue_binding(
        c, retry_policy=RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=0.5)
    )
    futures = [
        binding.invoke("incr", (1,), mode=Mode.ALL, timeout=8.0) for _ in range(3)
    ]
    assert not futures[2].done  # shed, but a retry is scheduled instead
    c.run(10.0)
    assert all(f.done and not f.failed for f in futures)
    assert c.sim.obs.metrics.counter_value("client.retries") == 1
    # three calls, three call numbers, each applied exactly once everywhere
    assert all(len(s._own_replies) == 3 for s in servers)
    assert {s.servant.value for s in servers} == {3}


def test_send_queue_overflow_drops_a_one_way_call_and_counts_it():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter)
    binding = tiny_queue_binding(c, admission=AdmissionConfig())
    sends = [binding.invoke("incr", (1,), mode=Mode.ONE_WAY) for _ in range(3)]
    assert all(f.done and not f.failed for f in sends)  # nobody waits on a one-way
    c.run(5.0)
    assert c.sim.obs.metrics.counter_value("overload.shed") == 1
    assert {s.servant.value for s in servers} == {2}


def test_manager_shed_then_retry_completes_exactly_once():
    """A shed call is never partially executed: the retry under the same
    call number runs fresh through the reply cache and applies once."""
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all(
        "svc",
        Counter,
        config=FAST,
        admission=AdmissionConfig(max_inflight=1),
    )
    binding = c.client(0).bind(
        "svc",
        style=BindingStyle.OPEN,
        restricted=True,
        liveliness=Liveliness.LIVELY,
        suspicion_timeout=100e-3,
        retry_policy=RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=0.5),
    )
    c.run(1.0)
    assert binding.ready.done

    futures = [
        binding.invoke("incr", (1,), mode=Mode.FIRST, timeout=8.0) for _ in range(4)
    ]
    c.run(10.0)
    assert all(f.done and not f.failed for f in futures)
    # the manager shed the burst down to one in flight, the client honored
    # the ShedReply hints, and every retried call still applied exactly once
    honored = c.sim.obs.metrics.counter("overload.retry_after_honored").value
    assert honored >= 1
    assert c.sim.obs.metrics.counter("overload.shed").value >= 1
    assert {s.servant.value for s in servers} == {4}


def test_manager_crash_while_shedding_stays_exactly_once():
    """Mid-ramp view change: the manager crashes while admission is
    shedding; the rebind continues shedding and nothing double-executes."""
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all(
        "svc",
        Counter,
        config=FAST,
        admission=AdmissionConfig(max_inflight=2),
    )
    binding = c.client(0).bind(
        "svc",
        style=BindingStyle.OPEN,
        restricted=True,
        liveliness=Liveliness.LIVELY,
        suspicion_timeout=100e-3,
    )
    c.run(1.0)
    assert binding.ready.done

    def issue():
        return binding.invoke("incr", (1,), mode=Mode.FIRST, timeout=8.0)

    generator = OpenLoopGenerator(
        c.sim,
        [issue],
        PoissonArrivals(300.0),
        Population(initial=1),
        duration=2.0,
    ).start()
    schedule = FaultSchedule([FaultEvent(at=0.8, kind="crash", target="manager")])
    schedule.install(c.sim, c.net, resolve_target=lambda name: binding.manager)
    run_until_done(c.sim, [generator.finished], deadline=c.sim.now + 30.0)
    c.run(1.0)  # a FIRST reply leaves before every survivor executed the call

    stats = generator.stats
    assert stats.offered > 100
    assert stats.shed > 0  # admission engaged on both sides of the crash
    assert stats.lost == 0  # every future resolved: completed, errored, or shed
    assert binding.rebinds >= 1
    crashed = schedule.log[0]["target"]
    survivors = [s for s in servers if s.member_id != crashed]
    # exactly-once across shed + view change: every completed incr applied
    # once on every survivor, and no shed call was partially executed
    values = {s.servant.value for s in survivors}
    assert values == {stats.completed}


def test_manager_gives_back_every_inflight_slot(monkeypatch):
    """A manager call holds an inflight slot from admission until it is
    answered — collected, or answered locally with async forwarding — or
    its re-multicast is refused by a full flow queue.  One-way calls never
    hold one.  After a mixed burst every slot is back."""
    # a full queue reads as pushback 1.0, which sheds before the forward:
    # lift the threshold so the queue itself refuses
    monkeypatch.setattr(admission_module, "PUSHBACK_HIGH", 2.0)
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all(
        "svc",
        Counter,
        config=GroupConfig(
            ordering=Ordering.ASYMMETRIC,
            sequencer_hint="s0",
            send_window=1,
            flow_max_queue=1,
        ),
        async_forwarding=True,
        admission=AdmissionConfig(),
    )
    binding = c.client(0).bind("svc", style=BindingStyle.OPEN)
    c.run(1.0)
    assert binding.ready.done
    manager = next(s for s in servers if s.member_id == binding.manager)
    counter = c.sim.obs.metrics.counter_value

    # one at a time: collected (ALL) and answered locally (FIRST)
    for mode in (Mode.ALL, Mode.FIRST, Mode.ONE_WAY):
        fut = binding.invoke("incr", (1,), mode=mode, timeout=10.0)
        c.run(1.0)
        assert fut.done and not fut.failed
        assert manager.admission.inflight == 0
    assert counter("overload.admitted") == 2  # one-ways are never admitted

    # a burst the one-slot forward queue refuses most of
    modes = [Mode.ALL, Mode.FIRST, Mode.ONE_WAY] * 20
    futures = [binding.invoke("incr", (1,), mode=mode, timeout=10.0) for mode in modes]
    c.run(20.0)
    assert all(f.done for f in futures)
    refused = [f for f in futures if f.failed]
    assert refused and all(isinstance(f.exception, Overloaded) for f in refused)
    assert counter("overload.shed") > len(refused)  # refused one-ways count too
    assert manager.admission.inflight == 0
    assert c.sim.obs.metrics.gauge("overload.inflight").value == 0


def test_a_manager_expelled_from_its_server_group_sheds_instead_of_raising():
    """A request manager whose server-group session has closed (it was
    expelled while a client still binds to it) sheds the call, as a full
    flow queue does: NotMember never escapes the delivery upcall, and the
    inflight slot comes back."""
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter, config=FAST, admission=AdmissionConfig())
    binding = c.client(0).bind("svc", style=BindingStyle.OPEN)
    c.run(1.0)
    assert binding.ready.done
    manager = next(s for s in servers if s.member_id == binding.manager)
    manager.group._close()

    fut = binding.invoke("incr", (1,), timeout=0.5)
    c.run(0.2)
    assert c.sim.obs.metrics.counter_value("overload.shed") >= 1
    assert manager.admission.inflight == 0
    assert all(s.servant.value == 0 for s in servers)  # it ran nowhere
    c.run(2.0)
    assert fut.done


@pytest.mark.parametrize("mode", [Mode.ALL, Mode.ONE_WAY])
def test_full_flow_queue_sheds_and_never_escapes_the_simulator(mode):
    """A saturated bounded flow queue refuses *new* forwards (shed) but
    never a reply or state update, and no FlowQueueFull escapes a callback.

    Regression: with ``Mode.ALL`` the exception used to escape through the
    replicas' reply multicast, with ``Mode.ONE_WAY`` through the manager's
    forward of a one-way call; either aborted ``sim.run``.
    """
    c = AppCluster(servers=3, clients=2)
    servers = c.serve_all(
        "svc",
        Counter,
        config=GroupConfig(
            ordering=Ordering.ASYMMETRIC,
            sequencer_hint="s0",
            send_window=1,
            flow_max_queue=1,
        ),
    )
    bindings = [c.client(i).bind("svc", style=BindingStyle.OPEN) for i in range(2)]
    c.run(1.0)
    assert all(b.ready.done for b in bindings)

    futures = [b.invoke("incr", (1,), mode=mode) for b in bindings for _ in range(200)]
    c.run(30.0)

    assert all(f.done for f in futures)
    shed = c.sim.obs.metrics.counter("overload.shed").value
    assert shed > 0
    if mode == Mode.ALL:
        failures = [f.exception for f in futures if f.failed]
        assert len(failures) == shed
        assert all(isinstance(exc, Overloaded) for exc in failures)
    # a shed call ran nowhere, every other call ran once on every replica
    assert {s.servant.value for s in servers} == {len(futures) - shed}


# ---------------------------------------------------------------------------
# scenario integration: sheds are not protocol failures
# ---------------------------------------------------------------------------
OVERLOAD_SPEC = {
    "name": "overload-smoke",
    "seed": 11,
    "topology": "lan",
    "settle": 1.0,
    "group": {
        "replicas": 3,
        "style": "open",
        "ordering": "asymmetric",
        "admission": {"max_inflight": 4},
        "flow_max_queue": 64,
    },
    "traffic": {
        "arrivals": {"kind": "poisson", "rate": 500.0},
        "churn": {"initial": 1},
        "duration": 2.0,
        "drain": 20.0,
        "workload": "request_reply",
        "mode": "first",
        "bindings": 2,
        "timeout": 10.0,
    },
    "slos": [
        {"kind": "accounting", "name": "no-protocol-failures", "max_errors": 0},
        {"kind": "reconciliation", "name": "traffic-reconciles"},
        {"kind": "counter", "name": "shedding-engaged", "counter": "overload.shed", "min": 1},
    ],
}


def test_scenario_sheds_are_not_protocol_failures():
    report = run_scenario(json.loads(json.dumps(OVERLOAD_SPEC)))
    traffic = report["traffic"]
    assert traffic["shed"] > 0
    assert traffic["errors"] == 0  # Overloaded is shed accounting, not failure
    assert traffic["lost"] == 0
    # accounting + reconciliation invariants hold while shedding
    assert report["passed"], [s for s in report["slos"] if not s["ok"]]
    counters = report["metrics"]["counters"]
    assert counters["overload.shed"] >= traffic["shed"]
    assert counters["overload.admitted"] >= traffic["completed"]


def test_scenario_spec_validates_admission_and_flow_queue():
    spec = json.loads(json.dumps(OVERLOAD_SPEC))
    spec["group"]["admission"] = {"max_inflight": 4, "nope": 1}
    with pytest.raises(ValueError, match="unknown keys"):
        run_scenario(spec)
    spec = json.loads(json.dumps(OVERLOAD_SPEC))
    spec["group"]["flow_max_queue"] = -1
    with pytest.raises(ValueError, match="flow_max_queue"):
        run_scenario(spec)


# ---------------------------------------------------------------------------
# degradation SLO
# ---------------------------------------------------------------------------
def _degradation_ctx(completed, shed, duration, latency_s):
    stats = TrafficStats()
    stats.offered = completed + shed
    stats.completed = completed
    stats.shed = shed
    stats.samples = [(0.0, latency_s)] * completed
    return SloContext(metrics=None, stats=stats, snapshot={}, duration=duration)


DEGRADATION_SPEC = {
    "kind": "degradation",
    "name": "graceful",
    "capacity": 100.0,
    "min_goodput_fraction": 0.8,
    "stat": "p99",
    "max_ms": 50.0,
    "max_shed_ratio": 0.9,
}


def test_degradation_slo_passes_at_capacity():
    (slo,) = build_slos([dict(DEGRADATION_SPEC)])
    verdict = slo.evaluate(_degradation_ctx(900, 600, 10.0, 0.02))
    assert verdict["ok"]
    assert verdict["observed"]["goodput_per_s"] == 90.0
    assert verdict["observed"]["admitted_p99_ms"] == 20.0


def test_degradation_slo_fails_each_bound():
    (slo,) = build_slos([dict(DEGRADATION_SPEC)])
    # goodput below the floor
    assert not slo.evaluate(_degradation_ctx(500, 100, 10.0, 0.02))["ok"]
    # admitted latency above the bound
    assert not slo.evaluate(_degradation_ctx(900, 100, 10.0, 0.2))["ok"]
    # shed ratio above the cap
    assert not slo.evaluate(_degradation_ctx(900, 20000, 10.0, 0.02))["ok"]
    # no duration in context: cannot compute goodput
    assert not slo.evaluate(_degradation_ctx(900, 100, None, 0.02))["ok"]


def test_degradation_slo_spec_validation():
    with pytest.raises(ValueError):
        build_slos([{"kind": "degradation", "name": "x", "capacity": 0.0}])
    with pytest.raises(ValueError):
        build_slos(
            [{"kind": "degradation", "name": "x", "capacity": 10.0,
              "min_goodput_fraction": 1.5}]
        )
    with pytest.raises(ValueError):
        build_slos(
            [{"kind": "degradation", "name": "x", "capacity": 10.0,
              "max_shed_ratio": 2.0}]
        )
    with pytest.raises(ValueError, match="unknown"):
        build_slos([{"kind": "degradation", "name": "x", "capacity": 10.0, "nope": 1}])
