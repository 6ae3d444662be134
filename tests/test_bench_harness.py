"""Smoke tests for the benchmark harness (small parameters) and its gate."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    ClosedLoopClient,
    Environment,
    ExperimentPoint,
    LatencySample,
    corba_baseline,
    emit,
    format_graph,
    format_table,
    gate,
    peer_point,
    request_reply_point,
    run_until_done,
    summarize,
    sweep,
)
from repro.bench.__main__ import experiments, load
from repro.bench.env import REQUEST_REPLY_CONFIGS, _client_site, _server_site
from repro.core import BindingStyle, Mode
from repro.errors import BindingBroken, Overloaded
from repro.groupcomm import Ordering
from repro.scenario import load_spec
from repro.scenario.__main__ import spec_sha256
from repro.scenario.slo import build_slos
from repro.sim import Future, Simulator

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


class TestStats:
    def test_summarize_basic(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats["count"] == 4
        assert stats["mean"] == 2.5
        assert stats["median"] == 2.5
        assert stats["min"] == 1.0 and stats["max"] == 4.0

    def test_summarize_empty(self):
        assert summarize([])["count"] == 0

    def test_latency_sample_ms(self):
        sample = LatencySample()
        sample.add(0.001)
        sample.add(0.003)
        assert sample.mean_ms == pytest.approx(2.0)

    def test_series_and_points(self):
        def point(config, x, scale):
            return ExperimentPoint(x * scale + 0.0004, 50.0 * x + 0.004, {"n": x})

        assert sweep(point, "lan", (1, 2), scale=2.0) == {
            1: {"latency_ms": 2.0, "throughput": 50.0, "n": 1},
            2: {"latency_ms": 4.0, "throughput": 100.0, "n": 2},
        }


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "b"], [(1, 2.5), ("x", 100.0)], title="T")
        assert "T" in text and "2.50" in text and "100" in text

    def test_format_graph_merges_series(self):
        one = {1: {"latency_ms": 5.0, "throughput": 10.0}}
        two = {2: {"latency_ms": 7.0, "throughput": 20.0}}
        text = format_graph("G", {"one": one, "two": two}, metric="latency_ms")
        assert "one" in text and "two" in text and "-" in text

    def test_emit_only_prints(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        emit("a table")
        assert "a table" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestEnvironment:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            Environment(config="moon")
        for config in REQUEST_REPLY_CONFIGS:
            Environment(config=config)

    def test_site_placement(self):
        assert _server_site("lan", 2) == "newcastle"
        assert _server_site("mixed", 1) == "newcastle"
        assert _server_site("wan", 1) == "london"
        assert _client_site("lan", 0) == "newcastle"
        assert {_client_site("mixed", i) for i in range(4)} == {"london", "pisa"}
        # wan clients are offset from same-index servers
        assert _client_site("wan", 0) != _server_site("wan", 0)

    def test_serve_replicas(self):
        from repro.apps import RandomNumberServant

        env = Environment(config="lan", seed=5)
        servers = env.serve_replicas("svc", RandomNumberServant, 2)
        assert len(servers) == 2
        assert set(servers[0].members) == {"s0", "s1"}


class TestClosedLoopClient:
    """The one closed-loop driver: §5.1's client at window 1, §5.2's member at 8."""

    def test_window_1_counts_failures_and_stops_on_a_broken_binding(self):
        sim = Simulator(seed=1)
        failures = {2: RuntimeError("boom"), 5: BindingBroken("gone")}
        issued = []

        def issue(i):
            issued.append((i, sim.now))
            if i == 3:
                raise Overloaded("refused at the call site")
            reply = Future(name=f"r{i}")
            if i in failures:
                sim.schedule(0.5, reply.fail, failures[i])
            else:
                sim.schedule(0.1 * (i + 1), reply.resolve, i)
            return reply

        client = ClosedLoopClient(sim, issue=issue, requests=9, warmup=1)
        sim.run()
        assert client.done.done and client.outstanding == 0
        # strictly one at a time, each issued as the previous one completes;
        # three failures counted, the BindingBroken one ends the loop early
        assert [i for i, _at in issued] == [0, 1, 2, 3, 4, 5]
        assert [at for _i, at in issued[1:4]] == pytest.approx([0.1, 0.3, 0.8])
        assert client.errors == 3
        # request 0 is warm-up; 1 and 4 are the timed successes, in that order
        assert client.latencies.values == pytest.approx([0.2, 0.5])
        first, second = client.latencies.values
        assert client.latency_sum == 0.0 + first + second
        assert client.first_timed_start == pytest.approx(0.1)
        assert client.last_completion == pytest.approx(1.3)

    def test_a_bug_in_issue_escapes_the_run_instead_of_counting_as_a_failed_call(self):
        """Only a ``ReproError`` is an outcome: an ``AttributeError`` out of
        ``issue()`` (a slot missing on the invocation path, say) must stop
        the run and reach its caller, not pass as a failed request."""
        sim = Simulator(seed=1)
        issued = []

        def issue(i):
            issued.append(i)
            if i == 2:
                raise AttributeError("'_PendingCall' object has no attribute 'stamps'")
            reply = Future(name=f"r{i}")
            sim.schedule(0.1, reply.resolve, i)
            return reply

        client = ClosedLoopClient(sim, issue=issue, requests=9, warmup=1)
        with pytest.raises(AttributeError, match="_PendingCall"):
            run_until_done(sim, [client.done], deadline=10.0)
        assert issued == [0, 1, 2] and client.errors == 0
        assert sim.now == pytest.approx(0.2)

    def test_window_3_refills_on_any_completion_and_drains_before_done(self):
        sim = Simulator(seed=1)
        delays = [5.0, 1.0, 3.0, 1.0, 4.0, 1.0, 2.0]
        in_flight, completed, peak = set(), [], [0]

        def issue(i):
            reply = Future(name=f"r{i}")
            in_flight.add(i)
            peak[0] = max(peak[0], len(in_flight))

            def finish():
                in_flight.discard(i)
                completed.append(i)
                reply.resolve(i)

            sim.schedule(delays[i], finish)
            return reply

        client = ClosedLoopClient(sim, issue=issue, requests=5, warmup=2, window=3)
        drained_at_done = []
        client.done.add_done_callback(lambda _f: drained_at_done.append(not in_flight))
        sim.run()
        # request 0 stays outstanding until t=5 while 3, 4, 5 and 6 are issued
        # around it: the window is a count, not a wait for the oldest
        assert completed == [1, 3, 2, 5, 0, 4, 6]
        assert peak == [3]
        assert drained_at_done == [True] and client.outstanding == 0
        # requests 0 and 1 are warm-up: five latencies, in completion order
        assert client.latencies.values == [1.0, 3.0, 1.0, 4.0, 2.0]
        assert client.latency_sum == 11.0
        assert client.first_timed_start == 0.0 and client.last_completion == 6.0
        assert client.errors == 0


class TestHarnessSmoke:
    def test_corba_baseline_lan_faster_than_wan(self):
        lan = corba_baseline("newcastle", "newcastle", requests=30)
        wan = corba_baseline("pisa", "newcastle", requests=30)
        assert lan.latency_ms < wan.latency_ms
        assert lan.throughput > wan.throughput

    def test_request_reply_point_smoke(self):
        point = request_reply_point(
            "lan",
            2,
            replicas=2,
            style=BindingStyle.OPEN,
            mode=Mode.FIRST,
            requests=10,
        )
        assert point.latency_ms > 0
        assert point.throughput > 0
        assert point.detail["errors"] == 0
        assert point.detail["requests"] == 20

    def test_peer_point_smoke(self):
        point = peer_point("lan", 3, Ordering.SYMMETRIC, multicasts=8)
        assert point.latency_ms > 0
        assert point.throughput > 0


# ---------------------------------------------------------------------------
# the gate: one comparison of a run with a committed number
# ---------------------------------------------------------------------------
WORKLOAD = {"members": 3, "cohorts": (2, 4), "seed": 42}
RESULT = {
    "capacity": 518.0,
    1: {"events": 100, "delivered": 40, "cpu_s": 0.5, "rate": 200.0},
    2: {"events": 180, "delivered": 90, "cpu_s": 0.9, "rate": 200.0},
}


def run_gate(path, result=RESULT, workload=WORKLOAD, check=True, **options):
    return gate.run(
        "demo", workload, result,
        exact=("capacity", "events", "delivered", "spans"), check=check, path=path,
        **options,
    )


@pytest.fixture
def committed(tmp_path):
    path = tmp_path / "gates.json"
    assert run_gate(path, check=False) == 0
    return path


def edited(changes, drop=None):
    result = {**RESULT, 2: dict(RESULT[2])}
    result[2].update(changes)
    if drop:
        del result[2][drop]
    return result


class TestGate:
    def test_write_then_check_round_trips(self, committed, capsys):
        section = json.loads(committed.read_text())["demo"]
        assert set(section) == {"workload", "exact", "timed"}
        assert section["exact"]["2"] == {"events": 180, "delivered": 90}
        assert section["timed"]["1"] == {"cpu_s": 0.5, "rate": 200.0}
        assert run_gate(committed) == 0
        assert "ok demo" in capsys.readouterr().out

    def test_writing_one_section_keeps_the_others(self, committed):
        assert gate.run(
            "other", {}, {"n": 1}, exact=("n",), check=False, path=committed
        ) == 0
        assert run_gate(committed) == 0

    def test_a_rewrite_prints_every_exact_value_it_moves(self, committed, capsys):
        capsys.readouterr()
        moved = {**edited({"events": 171, "cpu_s": 9.9}, drop="delivered"), 4: {"events": 1}}
        moved["capacity"] = 0.0
        assert run_gate(committed, result=moved, check=False) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[:-1] == [
            "moved demo.exact.2.delivered: 90 → (absent)",
            "moved demo.exact.2.events: 180 → 171 (-5.00%)",
            "moved demo.exact.4: (absent) → {'events': 1}",
            "moved demo.exact.capacity: 518.0 → 0.0 (-100.00%)",
        ]  # a timed value (cpu_s) is never listed
        assert printed[-1].startswith("section 'demo' written")
        assert run_gate(committed, result=moved, check=False) == 0
        assert capsys.readouterr().out.startswith("section 'demo' written")  # nothing moved

    @pytest.mark.parametrize(
        "result, named",
        [
            (edited({"events": 181}), "demo.exact.2.events: 181 vs committed 180"),
            (edited({}, drop="delivered"), "demo.exact.2.delivered: committed, but missing"),
            (edited({"spans": 3}), "demo.exact.2.spans: in this run, but not committed"),
            ({**RESULT, 4: {"events": 1}}, "demo.exact.4: in this run, but not committed"),
        ],
    )
    def test_exact_values_compare_key_for_key(self, committed, capsys, result, named):
        assert run_gate(committed, result=result) == 1
        assert f"FAIL {named}" in capsys.readouterr().out

    def test_other_constants_are_another_experiment(self, committed, capsys):
        assert run_gate(committed, workload=dict(WORKLOAD, seed=43)) == 1
        assert "FAIL demo.workload.seed: 43 vs committed 42" in capsys.readouterr().out

    def test_a_timed_value_never_decides(self, committed):
        slower = edited({"rate": 0.2, "cpu_s": 900.0})  # a 1000x slower run
        assert run_gate(committed, result=slower) == 0
        with pytest.raises(TypeError):
            run_gate(committed, floors=("2.rate",))

    def test_failing_predicate_fails_in_both_modes_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "gates.json"
        predicates = [lambda result: [f"capacity {result['capacity']} is not 1"]]
        assert run_gate(path, check=False, predicates=predicates) == 1
        assert "FAIL capacity 518.0 is not 1" in capsys.readouterr().out
        assert not path.exists()
        assert run_gate(path, check=False) == 0
        before = path.read_text()
        assert run_gate(path, result=edited({"events": 1}), check=False, predicates=predicates) == 1
        assert path.read_text() == before
        assert run_gate(path, predicates=predicates) == 1

    def test_unknown_section_and_unreadable_file_exit_cleanly(self, committed, tmp_path, capsys):
        assert gate.run("nope", {}, {}, exact=(), check=True, path=committed) == 1
        assert run_gate(tmp_path / "absent.json") == 1
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert run_gate(garbage) == 1
        assert run_gate(garbage, check=False) == 1  # never overwrite what it cannot read
        assert garbage.read_text() == "{not json"
        assert capsys.readouterr().out.count("FAIL") == 4


    def test_main_is_the_command_line_of_every_script(self, tmp_path, capsys):
        path = tmp_path / "gates.json"
        reported = []

        def main(result, argv, predicates=()):
            return gate.main(
                "Demo.\n\nMore.", "demo", WORKLOAD, lambda: result, reported.append,
                argv=argv, exact=("capacity", "events", "delivered"), predicates=predicates,
                path=path,
            )

        assert main(RESULT, []) == 0  # no flag: the section is written
        assert main(RESULT, ["--check"]) == 0
        assert reported == [RESULT, RESULT]
        assert main(edited({"events": 181}), ["--check"]) == 1
        assert "FAIL demo.exact.2.events: 181 vs committed 180" in capsys.readouterr().out
        before = path.read_text()
        assert main(edited({"events": 181}), [], predicates=[lambda result: ["no"]]) == 1
        assert path.read_text() == before
        with pytest.raises(SystemExit):
            main(RESULT, ["--requests", "5"])  # --check is the only flag


class TestPerInterpreter:
    """A call count is stored per interpreter: a run writes its own entry
    and carries every other interpreter's committed one."""

    OTHER = "3.11" if gate.INTERPRETER == "3.12" else "3.12"

    def run_counts(self, path, calls, check):
        counts = gate.per_interpreter("demo", ("2", "calls"), calls, path=path)
        result = {**RESULT, 2: {**RESULT[2], "calls": counts}}
        return gate.run(
            "demo", WORKLOAD, result, exact=("capacity", "events", "delivered", "calls"),
            check=check, path=path,
        )

    def committed_counts(self, path):
        return json.loads(path.read_text())["demo"]["exact"]["2"]["calls"]

    def test_with_no_committed_section_it_writes_only_its_own_value(self, tmp_path):
        path = tmp_path / "gates.json"
        assert self.run_counts(path, 31.5, check=False) == 0
        assert self.committed_counts(path) == {gate.INTERPRETER: 31.5}

    def test_it_carries_the_other_interpreters_value_and_writes_its_own(self, tmp_path):
        path = tmp_path / "gates.json"
        assert self.run_counts(path, 31.5, check=False) == 0
        section = json.loads(path.read_text())
        section["demo"]["exact"]["2"]["calls"] = {self.OTHER: 30.0, gate.INTERPRETER: 31.5}
        path.write_text(json.dumps(section))
        assert self.run_counts(path, 31.5, check=True) == 0
        assert self.run_counts(path, 32.0, check=False) == 0
        assert self.committed_counts(path) == {self.OTHER: 30.0, gate.INTERPRETER: 32.0}

    def test_a_moved_count_fails_naming_its_interpreter(self, tmp_path, capsys):
        path = tmp_path / "gates.json"
        assert self.run_counts(path, 31.5, check=False) == 0
        assert self.run_counts(path, 31.5001, check=True) == 1
        assert f"FAIL demo.exact.2.calls.{gate.INTERPRETER}: 31.5001 vs committed 31.5" in (
            capsys.readouterr().out
        )

    def test_an_unreadable_file_gives_a_clean_fail(self, tmp_path, capsys):
        garbage = tmp_path / "gates.json"
        garbage.write_text("{not json")
        assert gate.per_interpreter("demo", ("calls",), 1.0, path=garbage) == {
            gate.INTERPRETER: 1.0
        }
        for check in (True, False):
            assert self.run_counts(garbage, 31.5, check=check) == 1
        assert capsys.readouterr().out.count("FAIL cannot read") == 2
        assert garbage.read_text() == "{not json"


# ---------------------------------------------------------------------------
# the seventeen scripts against the committed file
# ---------------------------------------------------------------------------
def _keys(tree):
    """Every key of a JSON tree, at any depth."""
    if not isinstance(tree, dict):
        return set()
    return set(tree).union(*(_keys(value) for value in tree.values()))


def _subtrees(tree):
    """Every dict of a JSON tree, itself included."""
    if not isinstance(tree, dict):
        return []
    return [tree] + [sub for value in tree.values() for sub in _subtrees(value)]


def test_committed_file_has_exactly_the_gated_sections():
    """Sections are in bijection with the seventeen scripts (file stem without
    bench_) and the canned scenarios (scenario.<file stem>); read, never run."""
    gates = json.loads(gate.GATES.read_text())
    assert len(experiments()) == 17
    specs = {f"scenario.{path.stem}": load_spec(path) for path in SCENARIOS.glob("*.json")}
    assert len(specs) == 13
    assert set(gates) == set(experiments()) | set(specs)
    for section in gates.values():
        assert set(section) == {"workload", "exact", "timed"}
    for name, spec in specs.items():
        section = gates[name]
        # another spec is another experiment: the file is the one committed
        assert section["workload"] == {"spec_sha256": spec_sha256(spec)}
        assert set(section["exact"]["slos"]) == {slo.name for slo in build_slos(spec.slos)}
        # the one expected failure is gated as the failure it is
        assert section["exact"]["passed"] is (name != "scenario.failing_slo")
        assert set(section["timed"]) == {"wall_time_s"}


def test_every_per_interpreter_value_holds_both_interpreters():
    """Each call count is checked under 3.11 and 3.12, so both are committed."""
    gates = json.loads(gate.GATES.read_text())
    counts = [
        tree for section in gates.values() for tree in _subtrees(section["exact"])
        if any(key.startswith("3.") for key in tree)
    ]
    assert len(counts) == 1 + 3 + 6  # kernel_speed, obs_overhead, e2e
    for tree in counts:
        assert set(tree) == {"3.11", "3.12"}


@pytest.mark.parametrize("name", experiments())
def test_script_matches_its_committed_section(name):
    script = load(name)
    section = json.loads(gate.GATES.read_text())[script.SECTION]
    assert script.SECTION == name
    # the constants are the committed workload: any other value fails --check
    assert json.loads(json.dumps(script.WORKLOAD)) == section["workload"]
    # every key measure() routes to ``exact`` is committed, none as ``timed``
    assert set(script.EXACT) <= _keys(section["exact"])
    assert not set(script.EXACT) & _keys(section["timed"])


def test_graphs_17_18_reproduce_on_the_papers_protocol():
    """§5.2's headline, lost for twelve PRs to a changed library default: the
    predicates run here, on the paper-protocol curves, so it cannot be again."""
    script = load("graphs_17_18_peer")
    assert script.shape_failures({"paper": script.run_protocol("paper")}) == []
