"""Smoke tests for the benchmark harness (small parameters) and its gate."""

import json

import pytest

from repro.bench import (
    Environment,
    LatencySample,
    Point,
    Series,
    corba_baseline,
    emit,
    format_graph,
    format_table,
    gate,
    peer_point,
    request_reply_point,
    summarize,
)
from repro.bench.__main__ import experiments, load
from repro.bench.env import REQUEST_REPLY_CONFIGS, _client_site, _server_site
from repro.core import BindingStyle, Mode
from repro.groupcomm import Ordering


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
        series = Series("x")
        series.add(Point(1, 2.0, 100.0))
        series.add(Point(2, 3.0, 150.0))
        assert series.curve() == {
            1: {"latency_ms": 2.0, "throughput": 100.0},
            2: {"latency_ms": 3.0, "throughput": 150.0},
        }
        assert series.at(2).latency_ms == 3.0
        assert series.at(9) is None


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "b"], [(1, 2.5), ("x", 100.0)], title="T")
        assert "T" in text and "2.50" in text and "100" in text

    def test_format_graph_merges_series(self):
        s1, s2 = Series("one"), Series("two")
        s1.add(Point(1, 5.0, 10.0))
        s2.add(Point(2, 7.0, 20.0))
        text = format_graph("G", {"one": s1.curve(), "two": s2.curve()}, metric="latency_ms")
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

    def test_timed_values_gate_only_through_a_named_floor(self, committed, capsys):
        slower = edited({"rate": 179.9, "cpu_s": 99.0})
        assert run_gate(committed, result=slower) == 0  # unfloored: informational
        assert run_gate(committed, result=slower, floors=("2.rate",)) == 1
        assert "FAIL demo.timed.2.rate regressed: 179.9 < floor 180.0" in capsys.readouterr().out
        assert run_gate(committed, result=edited({"rate": 180.1}), floors=("2.rate",)) == 0
        assert run_gate(committed, result=edited({"rate": 999.0}), floors=("2.rate",)) == 0

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


# ---------------------------------------------------------------------------
# the sixteen scripts against the committed file
# ---------------------------------------------------------------------------
def _keys(tree):
    """Every key of a JSON tree, at any depth."""
    if not isinstance(tree, dict):
        return set()
    return set(tree).union(*(_keys(value) for value in tree.values()))


def test_committed_file_has_exactly_the_gated_sections():
    """Scripts and sections are in bijection: section name = file stem without bench_."""
    gates = json.loads(gate.GATES.read_text())
    assert len(experiments()) == 16
    assert set(gates) == set(experiments())
    for section in gates.values():
        assert set(section) == {"workload", "exact", "timed"}


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
    for floor in getattr(script, "FLOORS", ()):
        assert gate._at(section["timed"], floor) > 0


def test_graphs_17_18_reproduce_on_the_papers_protocol():
    """§5.2's headline, lost for twelve PRs to a changed library default: the
    predicates run here, on the paper-protocol curves, so it cannot be again."""
    script = load("graphs_17_18_peer")
    assert script.shape_failures({"paper": script.run_protocol("paper")}) == []
