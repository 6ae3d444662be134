"""The scenario engine: arrivals, churn, fault schedules, SLOs, runner, CLI."""

import json
import random
from pathlib import Path

import pytest

from repro.bench.workloads import run_until_done
from repro.core import BindingStyle, Mode
from repro.errors import CommFailure
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.scenario import (
    DiurnalArrivals,
    FaultEvent,
    FaultSchedule,
    OpenLoopGenerator,
    PoissonArrivals,
    Population,
    RampArrivals,
    ScenarioSpec,
    arrival_process_from_spec,
    load_spec,
    next_arrival,
    run_scenario,
)
from repro.scenario.__main__ import gate_specs, gated, main as scenario_main
from repro.sim import Future, Simulator
from tests.core_helpers import AppCluster, Counter

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

FAST = GroupConfig(
    ordering=Ordering.ASYMMETRIC,
    liveliness=Liveliness.LIVELY,
    silence_period=20e-3,
    suspicion_timeout=100e-3,
)


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------
def _count_arrivals(process, horizon, seed=3, **kwargs):
    rng = random.Random(seed)
    count, t = 0, 0.0
    while True:
        t = next_arrival(process, t, rng, horizon=horizon, **kwargs)
        if t is None:
            return count
        count += 1


def test_poisson_rate_sanity():
    # ~rate*horizon arrivals, within a loose stochastic band
    count = _count_arrivals(PoissonArrivals(10.0), horizon=100.0)
    assert 800 < count < 1200


def test_ramp_rate_shape():
    ramp = RampArrivals(start_rate=1.0, end_rate=5.0, ramp=10.0)
    assert ramp.rate(0.0) == 1.0
    assert ramp.rate(5.0) == pytest.approx(3.0)
    assert ramp.rate(10.0) == ramp.rate(50.0) == 5.0
    assert ramp.peak_rate == 5.0


def test_diurnal_cycles_between_base_and_peak():
    diurnal = DiurnalArrivals(base_rate=1.0, peak_rate=9.0, period=8.0)
    assert diurnal.rate(0.0) == pytest.approx(1.0)  # phase 0 = trough
    assert diurnal.rate(4.0) == pytest.approx(9.0)  # half period = crest
    assert diurnal.rate(8.0) == pytest.approx(1.0)


def test_thinning_respects_population_modulation():
    # doubling the population multiplier should ~double the arrivals
    process = PoissonArrivals(2.0)
    one = _count_arrivals(process, 200.0, peak_scale=1.0, rate_of_time=lambda t: 1.0)
    two = _count_arrivals(process, 200.0, peak_scale=2.0, rate_of_time=lambda t: 2.0)
    assert 1.6 < two / one < 2.4


def test_arrival_spec_validation():
    with pytest.raises(ValueError, match="unknown arrival kind"):
        arrival_process_from_spec({"kind": "sawtooth"})
    with pytest.raises(ValueError, match="missing"):
        arrival_process_from_spec({"kind": "poisson"})
    with pytest.raises(ValueError, match="unknown keys"):
        arrival_process_from_spec({"kind": "poisson", "rate": 1.0, "burst": 2})


# ---------------------------------------------------------------------------
# population churn
# ---------------------------------------------------------------------------
def test_population_scripted_steps():
    pop = Population(initial=10, steps=[{"at": 5.0, "join": 10}, {"at": 8.0, "leave": 15}])
    assert pop.peak == 20
    assert pop.size(0.0) == 10
    assert pop.size(5.0) == 20
    assert pop.size(9.0) == 5
    assert pop.describe()["joins"] == 10 and pop.describe()["leaves"] == 15


def test_population_stochastic_churn_is_clamped_and_deterministic():
    def final_size(seed):
        pop = Population(
            initial=5, join_rate=2.0, leave_rate=2.0,
            min_clients=1, max_clients=8, rng=random.Random(seed),
        )
        sizes = [pop.size(t * 0.5) for t in range(100)]
        assert all(1 <= s <= 8 for s in sizes)
        return sizes

    assert final_size(2) == final_size(2)


def test_population_stochastic_requires_bound_and_rng():
    with pytest.raises(ValueError, match="max_clients"):
        Population(initial=5, join_rate=1.0)
    with pytest.raises(ValueError, match="RNG"):
        Population(initial=5, join_rate=1.0, max_clients=10)


# ---------------------------------------------------------------------------
# spec loading and validation
# ---------------------------------------------------------------------------
def _spec_dict(**overrides):
    spec = {
        "name": "t",
        "seed": 3,
        "topology": "lan",
        "settle": 1.0,
        "group": {"replicas": 3},
        "traffic": {
            "arrivals": {"kind": "poisson", "rate": 1.0},
            "churn": {"initial": 5},
            "duration": 3.0,
            "drain": 20.0,
        },
        "faults": [],
        "slos": [{"kind": "accounting", "name": "acct"}],
    }
    spec.update(overrides)
    return spec


def test_spec_round_trips_through_dict():
    spec = load_spec(_spec_dict(faults=[{"at": 1.0, "kind": "crash", "target": "s1"}]))
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()


def test_spec_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match="unknown keys"):
        load_spec(_spec_dict(typo=1))
    with pytest.raises(ValueError, match="topology"):
        load_spec(_spec_dict(topology="mars"))
    for kind in ("meteor", "slow_node"):
        with pytest.raises(ValueError, match="unknown fault kind"):
            load_spec(_spec_dict(faults=[{"at": 1.0, "kind": kind, "target": "s1"}]))
    for key in ("factor", "duration"):
        fault = {"at": 1.0, "kind": "crash", "target": "s1", key: 4.0}
        with pytest.raises(ValueError, match="unknown keys"):
            load_spec(_spec_dict(faults=[fault]))
    with pytest.raises(ValueError, match="after the run window"):
        load_spec(_spec_dict(faults=[{"at": 99.0, "kind": "heal"}]))
    with pytest.raises(ValueError, match="unknown SLO kind"):
        load_spec(_spec_dict(slos=[{"kind": "uptime"}]))


def test_fault_event_validation():
    with pytest.raises(ValueError, match="requires a target"):
        FaultEvent(at=1.0, kind="crash")
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(at=1.0, kind="slow_node", target="s0")
    with pytest.raises(ValueError, match="groups/sites"):
        FaultEvent(at=1.0, kind="partition")


# ---------------------------------------------------------------------------
# kernel + run_until_done slicing (satellite)
# ---------------------------------------------------------------------------
def test_run_with_max_events_does_not_skip_clock_past_pending_events():
    sim = Simulator(seed=0)
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, fired.append, t)
    sim.run(until=10.0, max_events=2)
    # capped after two events: the clock must sit at the last executed
    # event, not jump to until=10 past the still-pending event at t=3
    assert fired == [1.0, 2.0]
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert fired == [1.0, 2.0, 3.0]
    assert sim.now == 10.0


def test_run_until_done_ends_at_the_instant_its_last_future_resolves():
    sim = Simulator(seed=0)
    futures = [Future(name="early"), Future(name="late")]
    ran = []
    for i in range(10000):
        sim.schedule(i * 1e-3, ran.append, i)
    sim.schedule(6.0, futures[1].try_resolve, None)
    sim.schedule(2.0, futures[0].try_fail, CommFailure("done all the same"))
    sim.schedule(6.0, ran.append, "due with it")
    run_until_done(sim, futures, deadline=10.0)
    assert sim.now == 6.0 and ran[-1] == "due with it"
    run_until_done(sim, futures, deadline=10.0)  # nothing left to wait for
    assert sim.now == 6.0 and ran[-1] == "due with it"


def test_a_drain_ends_where_its_futures_resolve_however_many_events_ran(monkeypatch):
    """One extra periodic no-op timer adds events and changes nothing else:
    the drain ends at the virtual instant the traffic finished, not at an
    event count, so the grace window and every value in the section hold."""
    from repro.scenario import runner

    spec = SCENARIOS / "map_reduce.json"
    plain = gated(run_scenario(spec))

    class Ticking(runner.Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sim = self.sim

            def tick():
                sim.schedule(0.25, tick)

            sim.schedule(0.25, tick)

    monkeypatch.setattr(runner, "Environment", Ticking)
    ticking = gated(run_scenario(spec))
    assert ticking.pop("events_processed") > plain.pop("events_processed")
    assert ticking == plain


def test_run_until_done_raises_on_unresolved_futures():
    sim = Simulator(seed=0)
    with pytest.raises(RuntimeError, match="did not finish"):
        run_until_done(sim, [Future(name="never")], deadline=1.0)


def test_a_future_that_resolves_after_a_missed_deadline_stops_no_later_run():
    sim = Simulator(seed=0)
    late = Future(name="late")
    sim.schedule(2.0, late.try_resolve, None)
    sim.schedule(3.0, sim.schedule, 0.0, lambda: None)
    with pytest.raises(RuntimeError, match="did not finish"):
        run_until_done(sim, [late], deadline=1.0)
    sim.run(until=5.0)  # the late future resolves in here
    assert late.done and sim.now == 5.0


def test_calls_that_time_out_after_a_missed_drain_leave_the_run_standing():
    """Both replicas crash and the drain ends before the in-flight calls
    time out; they fail during the convergence grace that follows."""
    spec = json.loads((SCENARIOS / "lan_crash_restart.json").read_text())
    spec["group"]["replicas"] = 2
    spec["traffic"].update(duration=2.0, drain=0.5, timeout=2.0)
    spec["faults"] = [
        {"at": 1.0, "kind": "crash", "target": target} for target in ("s0", "s1")
    ]
    report = run_scenario(spec)
    assert report["sim"]["drained"] is False


# ---------------------------------------------------------------------------
# fault schedules against a live cluster
# ---------------------------------------------------------------------------
def test_fault_schedule_fires_and_logs_relative_times():
    c = AppCluster(servers=2, clients=0)
    c.run(5.0)  # install later than t=0 to check offsets are relative
    schedule = FaultSchedule(
        [
            FaultEvent(at=3.0, kind="recover", target="s1"),
            FaultEvent(at=1.0, kind="crash", target="s1"),
            FaultEvent(at=2.0, kind="partition", groups=[["s0"], ["s1"]]),
            FaultEvent(at=2.5, kind="heal"),
        ]
    )
    schedule.install(c.sim, c.net)
    c.run(10.0)
    assert [entry["kind"] for entry in schedule.log] == ["crash", "partition", "heal", "recover"]
    assert [entry["at"] for entry in schedule.log] == [1.0, 2.0, 2.5, 3.0]
    assert c.net.node("s1").alive
    assert c.sim.obs.metrics.counter_value("scenario.fault.crash") == 1


# ---------------------------------------------------------------------------
# manager crash under open-loop load (satellite: rebinding end to end)
# ---------------------------------------------------------------------------
def test_manager_crash_mid_burst_rebinds_without_losing_or_duplicating():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter, config=FAST)
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
        PoissonArrivals(20.0),
        Population(initial=1),
        duration=2.0,
    ).start()
    # crash whoever is the manager right now, mid-burst
    schedule = FaultSchedule([FaultEvent(at=0.8, kind="crash", target="manager")])
    schedule.install(c.sim, c.net, resolve_target=lambda name: binding.manager)
    run_until_done(c.sim, [generator.finished], deadline=c.sim.now + 30.0)
    c.run(1.0)  # a FIRST reply leaves before every survivor executed the call

    stats = generator.stats
    assert stats.offered > 10
    assert stats.lost == 0  # every client future resolved
    assert stats.completed + stats.errors == stats.offered
    assert binding.rebinds >= 1  # the smart proxy rebound
    assert schedule.log and schedule.log[0]["kind"] == "crash"
    crashed = schedule.log[0]["target"]
    # call numbers suppressed re-execution of retried calls: every survivor
    # applied each completed incr exactly once
    survivors = [s for s in servers if s.member_id != crashed]
    values = {s.servant.value for s in survivors}
    assert len(values) == 1
    assert values.pop() == stats.completed


# ---------------------------------------------------------------------------
# runner + CLI
# ---------------------------------------------------------------------------
SMOKE_SPEC = {
    "name": "smoke",
    "seed": 7,
    "topology": "lan",
    "settle": 1.0,
    "group": {"replicas": 3},
    "traffic": {
        "arrivals": {"kind": "poisson", "rate": 0.5},
        "churn": {"initial": 10, "steps": [{"at": 1.0, "join": 10}]},
        "duration": 4.0,
        "drain": 20.0,
    },
    "faults": [
        {"at": 2.0, "kind": "crash", "target": "s1"},
        {"at": 3.0, "kind": "recover", "target": "s1"},
    ],
    "slos": [
        {"kind": "accounting", "name": "acct"},
        {"kind": "reconciliation", "name": "recon"},
    ],
}


def test_run_scenario_report_is_deterministic():
    first = run_scenario(SMOKE_SPEC)
    second = run_scenario(SMOKE_SPEC)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["passed"]
    assert first["sim"]["drained"]
    assert first["traffic"]["offered"] > 0
    assert first["traffic"]["lost"] == 0
    assert [f["kind"] for f in first["faults"]] == ["crash", "recover"]
    assert first["metrics"]["counters"]["scenario.offered"] == first["traffic"]["offered"]


def test_run_scenario_failing_slo_sets_passed_false():
    spec = dict(SMOKE_SPEC)
    spec["slos"] = [{"kind": "latency", "name": "impossible", "stat": "p95", "max_ms": 1e-4}]
    report = run_scenario(spec)
    assert not report["passed"]
    assert report["slos"][0]["ok"] is False


def test_cli_run_exit_codes(tmp_path, capsys):
    passing = tmp_path / "pass.json"
    passing.write_text(json.dumps(SMOKE_SPEC))
    failing_spec = dict(SMOKE_SPEC)
    failing_spec["name"] = "doomed"
    failing_spec["slos"] = [{"kind": "latency", "name": "impossible", "stat": "p95", "max_ms": 1e-4}]
    failing = tmp_path / "fail.json"
    failing.write_text(json.dumps(failing_spec))
    out = tmp_path / "report.json"

    assert scenario_main(["run", str(passing), "--quiet", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True
    assert scenario_main(["run", str(failing), "--quiet"]) == 1
    captured = capsys.readouterr()
    assert "FAIL doomed" in captured.out

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert scenario_main(["run", str(broken)]) == 2
    assert scenario_main(["validate", str(passing)]) == 0
    assert scenario_main(["validate", str(broken)]) == 2

    # a served group that cannot form (a lively group whose 20 ms suspicion
    # timeout is shorter than a WAN hop) is a setup error like a binding that
    # cannot: one "error:" line and status 2, not a traceback and status 1
    cannot_form = json.loads((SCENARIOS / "wan_manager_crash.json").read_text())
    cannot_form["faults"] = []
    cannot_form["group"].update(
        liveliness="lively", silence_period=0.03, suspicion_timeout=0.02,
        flush_timeout=0.02, replicas=4,
    )
    unformed = tmp_path / "unformed.json"
    unformed.write_text(json.dumps(cannot_form))
    capsys.readouterr()
    assert scenario_main(["run", str(unformed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {unformed}: replica failed to start")
    assert captured.err.count("\n") == 1


def test_gate_subcommand_matches_the_store_or_names_what_moved(tmp_path, capsys):
    store = tmp_path / "gates.json"
    spec_path = tmp_path / "smoke.json"
    spec_path.write_text(json.dumps(SMOKE_SPEC))

    def gate(check=True, path=spec_path):
        status = gate_specs([str(path)], check=check, path=store)
        return status, capsys.readouterr().out

    assert gate(check=False) == (0, f"section 'scenario.smoke' written to {store}\n")
    written = store.read_text()
    section = json.loads(written)["scenario.smoke"]
    assert set(section["timed"]) == {"wall_time_s"}
    assert section["exact"]["slos"] == {"acct": True, "recon": True}
    assert section["exact"]["passed"] and section["exact"]["flight_events"] == 0
    assert gate() == (0, "ok scenario.smoke: exact values match gates.json\n")

    # teeth: a committed counter off by one is named by its key path
    drifted = json.loads(written)
    drifted["scenario.smoke"]["exact"]["counters"]["gc.delivered"] += 1
    store.write_text(json.dumps(drifted))
    status, out = gate()
    assert status == 1
    assert "FAIL scenario.smoke.exact.counters.gc.delivered: " in out
    assert out.count("FAIL") == 1
    store.write_text(written)

    # another SLO threshold is another experiment, whatever its verdict
    edited = dict(SMOKE_SPEC, slos=[{"kind": "accounting", "name": "acct", "max_errors": 1},
                                    SMOKE_SPEC["slos"][1]])
    spec_path.write_text(json.dumps(edited))
    status, out = gate()
    assert status == 1 and out.count("FAIL") == 1
    assert "FAIL scenario.smoke.workload.spec_sha256: " in out

    # --check never writes: a spec with no section fails, here and in the CLI
    other = tmp_path / "other.json"
    other.write_text(json.dumps(SMOKE_SPEC))
    status, out = gate(path=other)
    assert status == 1 and "FAIL no committed section 'scenario.other'" in out
    assert store.read_text() == written
    assert scenario_main(["gate", "--check", str(other)]) == 1
    other.write_text("{not json")
    assert gate(path=other)[0] == 2


def test_cli_fails_a_run_that_lost_in_flight_requests(tmp_path, capsys):
    # both replicas crash mid-window and the drain is shorter than the call
    # timeout: half the requests are still in flight at the deadline.  No SLO
    # fails (there are none), so report["passed"] stays true — the CLI must
    # not call that a pass
    spec = {
        "name": "nodrain",
        "seed": 1,
        "topology": "lan",
        "group": {"replicas": 2, "style": "open"},
        "traffic": {
            "arrivals": {"kind": "poisson", "rate": 20.0},
            "duration": 1.0,
            "drain": 1.0,
            "timeout": 15.0,
            "bindings": 2,
        },
        "faults": [
            {"at": 0.5, "kind": "crash", "target": "s0"},
            {"at": 0.5, "kind": "crash", "target": "s1"},
        ],
        "slos": [],
    }
    path = tmp_path / "nodrain.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    assert scenario_main(["run", str(path), "--quiet", "--output", str(out)]) == 1
    assert "FAIL nodrain" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["passed"] is True  # the SLO conjunction, pinned as-is
    assert report["sim"]["drained"] is False
    assert report["traffic"]["lost"] > 0


def test_peer_workload_scenario():
    report = run_scenario(
        {
            "name": "peer-smoke",
            "seed": 3,
            "topology": "lan",
            "settle": 1.5,
            "group": {"replicas": 3, "liveliness": "lively", "suspicion_timeout": 2.0},
            "traffic": {
                "arrivals": {"kind": "poisson", "rate": 0.5},
                "churn": {"initial": 4},
                "duration": 3.0,
                "drain": 20.0,
                "workload": "peer",
                "timeout": 10.0,
            },
            "slos": [{"kind": "accounting", "name": "acct"}],
        }
    )
    assert report["passed"]
    assert report["workload"] == "peer"
    assert report["traffic"]["completed"] == report["traffic"]["offered"] > 0


def test_max_in_flight_sheds_load():
    spec = json.loads(json.dumps(SMOKE_SPEC))
    spec["traffic"]["arrivals"] = {"kind": "poisson", "rate": 40.0}
    spec["traffic"]["duration"] = 1.0
    spec["traffic"]["max_in_flight"] = 2
    spec["slos"] = [{"kind": "accounting", "name": "acct"}]
    report = run_scenario(spec)
    assert report["traffic"]["shed"] > 0
    assert report["traffic"]["lost"] == 0
    assert report["passed"]  # shedding is accounted, not lost
