"""Smoke test for the end-to-end benchmark.

Run explicitly: ``python -m pytest benchmarks/e2e`` (tier-1 collects only
``tests/``).  Everything goes through the command line, the way the
benchmark driver and later PRs use it.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, HERE)
import compare  # noqa: E402


def run(*args, hashseed=None):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # run.py must find src/ on its own
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "quick.json"
    started = time.monotonic()
    done = run("--quick", "--trace", "--json", str(path))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    with open(path) as handle:
        return json.load(handle), elapsed


def test_benchmark_json_meets_the_contract(catalogue):
    assert set(catalogue) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert catalogue["paths"] == ["benchmarks/e2e"]
    assert 1 <= catalogue["run_seconds"] <= 60
    assert 2 <= len(catalogue["workloads"]) <= 8
    assert 1 <= len(catalogue["end_to_end"]) <= 16
    assert 1 <= len(catalogue["per_layer"]) <= 128
    names = []
    for workload in catalogue["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in catalogue["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in catalogue["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in catalogue["end_to_end"] + catalogue["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in catalogue["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in catalogue["end_to_end"])}]
    runs = 4 + 22 * len(catalogue["workloads"])
    assert runs * (catalogue["run_seconds"] + 5) < 3420  # 5 s: start-up + last pass


def test_quick_run_is_fast_complete_and_correct(quick, catalogue):
    results, elapsed = quick
    assert elapsed < 20.0
    assert set(results["workloads"]) == {w["name"] for w in catalogue["workloads"]}
    for name, result in results["workloads"].items():
        assert result["failures"] == [], name
        assert result["ops"]["errors"] == result["ops"]["lost"] == 0, name
        for section in ("end_to_end", "per_layer"):
            wanted = {m["name"]: m["unit"] for m in catalogue[section]}
            assert set(result[section]) == set(wanted), name
            for metric, entry in result[section].items():
                assert entry["unit"] == wanted[metric]
                assert isinstance(entry["value"], (int, float))
        assert all(result["end_to_end"][m["name"]]["value"] > 0
                   for m in catalogue["end_to_end"]), name
        assert result["per_layer"]["harness.gen_lag_max_vms"]["value"] == 0.0


def test_layer_fold_accounts_for_the_traced_time(quick):
    for name, result in quick[0]["workloads"].items():
        fold = result["fold"]
        attributed = sum(layer["self_s"] for layer in fold["layers"].values())
        assert abs(attributed - fold["total_s"]) <= 0.05 * fold["total_s"], name
        assert abs(fold["unattributed_s"]) < 0.02 * fold["total_s"], name


def test_workloads_separate_the_layers(quick):
    layer = {
        name: {m: entry["value"] for m, entry in result["per_layer"].items()}
        for name, result in quick[0]["workloads"].items()
    }
    for name, metrics in layer.items():
        sharded = name == "shard_kv_mixed"
        assert (metrics["shard.self_us_per_op"] > 0) == sharded, name
        assert (metrics["shard.scatters_per_op"] > 0) == sharded, name
        assert (metrics["overload.shed_ratio"] > 0) == (name == "lan_overload_2x"), name
        assert (metrics["gc.membership.views"] > 0) == (name == "lan_failover"), name
    assert layer["peer_sym_mcast"]["core.self_us_per_op"] == 0.0
    assert layer["peer_sym_mcast"]["gc.ticket_per_op"] == 0.0
    closed = layer["lan_closed_all"]
    assert closed["core.exec_per_op"] == 3.0
    assert max(
        (m for m in closed if m.endswith(".self_us_per_op")), key=closed.get
    ) == "orb.marshal.self_us_per_op"


def test_single_workload_prints_the_driver_line(catalogue):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run("--quick", "--workload", "peer_sym_mcast", "--seed", "7",
                   "--seconds", "1", "--trace", trace)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in catalogue[section]}
        assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())


def test_virtual_output_ignores_the_hash_seed(tmp_path):
    outputs = []
    for hashseed in (1, 2):
        path = tmp_path / f"hash{hashseed}.json"
        done = run("--quick", "--workload", "shard_kv_mixed", "--json", str(path),
                   hashseed=hashseed)
        assert done.returncode == 0, done.stdout + done.stderr
        with open(path) as handle:
            result = json.load(handle)["workloads"]["shard_kv_mixed"]
        exact = {m: e["value"] for m, e in result["end_to_end"].items() if "q3" not in e}
        exact.update({m: e["value"] for m, e in result["per_layer"].items()
                      if not m.endswith("self_us_per_op") and m != "obs.trace_overhead_ratio"})
        outputs.append((exact, result["events"]))
    assert outputs[0] == outputs[1]


def test_compare_tells_noise_from_regression(quick, tmp_path, catalogue):
    exact = {"value": 100.0}
    assert compare.verdict(exact, {"value": 100.0}, "lower", 0.02) == "same"
    assert compare.verdict(exact, {"value": 101.0}, "lower", 0.02) == "same"
    assert compare.verdict(exact, {"value": 103.0}, "lower", 0.02) == "worse"
    assert compare.verdict(exact, {"value": 97.0}, "lower", 0.02) == "better"
    assert compare.verdict(exact, {"value": 103.0}, "higher", 0.02) == "better"
    noisy = {"value": 100.0, "q1": 100.0, "q3": 130.0}
    assert compare.verdict(noisy, {"value": 120.0, "q1": 120.0, "q3": 125.0}, "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, {"value": 140.0, "q1": 140.0, "q3": 150.0}, "lower", 0.1) == "worse"
    path = tmp_path / "same.json"
    with open(path, "w") as handle:
        json.dump(quick[0], handle)
    done = run("compare", str(path), str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    # a result set against itself: nothing better or worse, and a row for
    # every (workload, metric) pair
    tally = dict(
        reversed(part.split()) for part in done.stdout.splitlines()[-1].split(", ")
    )
    assert set(tally) <= {"same", "unresolved"}
    assert sum(map(int, tally.values())) == (
        len(catalogue["workloads"]) * len(catalogue["end_to_end"])
    )
