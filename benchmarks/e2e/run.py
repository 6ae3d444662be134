#!/usr/bin/env python3
"""End-to-end benchmark: six workloads, two clocks, per-layer attribution.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S |
        --repeats N] [--trace [0|1]] [--json PATH] [--quick]
    python3 benchmarks/e2e/run.py compare BASE.json NEW.json

Every workload gets one *traced* pass (under cProfile: the discarded
warm-up, the exact call counts and the layer fold) and then untraced timed
passes, interleaved round-robin across the selected workloads, until the
time budget or repeat count is spent.  Virtual-clock metrics are
deterministic, so every pass must reproduce the first bit-for-bit; host
CPU is noisy, so it is reported as the lower quartile of the timed passes
with the interquartile range beside it.  README.md has the catalogue.

With exactly one ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402 - needs nothing from src
import compare  # noqa: E402 - needs nothing from src
from layers import Window, fold_profile, layer_metrics, layer_shares  # noqa: E402
from workloads import WORKLOADS, OpLog, Workload  # noqa: E402

#: p99 is reported only with at least this many samples beyond it
MIN_BEYOND_P99 = 10
#: independent input streams per --seed; virtual metrics are medians over
#: them, which steadies tail and maximum statistics across seeds
STREAMS = 4


def load_catalogue() -> Dict:
    """BENCHMARK.json is the metric catalogue: names, units, directions, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------
def percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def longest_stall(log: OpLog, start: float) -> float:
    """Longest gap between consecutive completions with an op outstanding.

    For the gap that ends at completion ``c`` the ops outstanding are those
    that resolve at or after ``c``; the stall starts when the previous op
    completed or the earliest of them fell due, whichever is later.
    """
    ops = sorted(
        (end if end is not None else math.inf, due, status == "ok")
        for due, end, status in zip(log.due, log.end, log.status)
        if due is not None
    )
    earliest_due = [0.0] * len(ops)
    running = math.inf
    for at in range(len(ops) - 1, -1, -1):
        running = min(running, ops[at][1])
        earliest_due[at] = running
    worst, previous = 0.0, start
    for at, (end, _due, ok) in enumerate(ops):
        if ok:
            worst = max(worst, end - max(previous, earliest_due[at]))
            previous = end
    return worst


def has_p99(completed: int) -> bool:
    return completed - math.ceil(0.99 * completed) >= MIN_BEYOND_P99


def virtual_metrics(log: OpLog, start: float) -> Dict[str, float]:
    latencies = sorted(
        end - due
        for due, end, status in zip(log.due, log.end, log.status)
        if status == "ok"
    )
    completed = len(latencies)
    if not completed:
        raise SystemExit("no op completed: nothing to measure")
    last = max(end for end, status in zip(log.end, log.status) if status == "ok")
    tail = 0.99 if has_p99(completed) else 0.95
    return {
        "ops_per_vs": completed / (last - start),
        "lat_p50_vms": percentile(latencies, 0.50) * 1e3,
        "lat_p99_vms": percentile(latencies, tail) * 1e3,
        "completed_ratio": completed / len(log.status),
        "stall_max_vms": longest_stall(log, start) * 1e3,
    }


def run_pass(cls, seed: int, quick: bool, profiler: Optional[cProfile.Profile] = None) -> Dict:
    """Set up, drive (timed, optionally profiled) and check one workload."""
    gc.collect()
    workload: Workload = cls(seed, quick)
    speed_before = calibrate.kernel()
    started = time.process_time()
    workload.setup()
    setup_s = time.process_time() - started
    window = Window(workload.env)
    if profiler is not None:
        profiler.enable()
    started = time.process_time()
    log = workload.drive()
    cpu_s = time.process_time() - started
    if profiler is not None:
        profiler.disable()
    host_scale = calibrate.scale(speed_before, calibrate.kernel())

    virtual = virtual_metrics(log, workload.t0)
    completed = log.count("ok")
    counts = window.close(completed)
    counts["harness.gen_lag_max_vms"] = log.gen_lag_max * 1e3
    failures = workload.check()
    if cls.exec_per_op is not None and counts["core.exec_per_op"] != cls.exec_per_op:
        failures.append(
            f"exactly-once: {counts['core.exec_per_op']:.4f} executions per op, "
            f"expected {cls.exec_per_op}"
        )
    return {
        "setup_s": setup_s * host_scale,
        "cpu_s": cpu_s * host_scale,
        "raw_cpu_s": cpu_s,
        "virtual": virtual,
        "counts": counts,
        "events": workload.env.sim.events_processed,
        "failures": failures,
        "ops": {
            "attempted": len(log.status),
            "completed": completed,
            "shed": log.count("shed"),
            "errors": log.count("error"),
            "lost": log.count(None),
        },
    }


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------
def nondeterminism(name: str, first: Dict, again: Dict) -> Optional[str]:
    """What differs between two passes that must be identical."""
    for part in ("virtual", "counts"):
        for key, value in first[part].items():
            if again[part][key] != value:
                return f"{name}: {key} was {value!r}, then {again[part][key]!r}"
    if first["events"] != again["events"]:
        return f"{name}: sim.events_processed was {first['events']}, then {again['events']}"
    return None


def measure(names: List[str], seed: int, quick: bool, seconds: float, repeats: Optional[int]) -> Dict:
    """Run the selected workloads; returns ``{workload: result}``.

    ``--seed`` expands into ``STREAMS`` independent input streams; pass
    ``i`` of a workload replays stream ``i % STREAMS``.  Pass 0 is traced.
    A pass that replays a stream must reproduce the stream's first pass
    exactly — for stream 0 that also shows tracing does not perturb the
    simulation.
    """
    begun = time.monotonic()
    passes: Dict[str, List[Dict]] = {name: [] for name in names}

    def one_more(name: str) -> None:
        done = passes[name]
        stream = len(done) % STREAMS
        profiler = None if done else cProfile.Profile()
        result = run_pass(WORKLOADS[name], seed * STREAMS + stream, quick, profiler)
        if profiler is not None:
            result["fold"] = fold_profile(profiler.getstats())
        if len(done) >= STREAMS:
            differs = nondeterminism(name, done[stream], result)
            if differs:
                raise SystemExit(f"NONDETERMINISM {differs}")
        done.append(result)

    def more(rounds: int) -> bool:
        if rounds < STREAMS:
            return True  # every stream needs a timed pass
        if repeats is not None:
            return rounds < repeats
        return time.monotonic() - begun < seconds * len(names)

    gc.disable()
    try:
        for name in names:
            one_more(name)
        rounds = 0
        while more(rounds):
            for name in names:
                one_more(name)
            rounds += 1
    finally:
        gc.enable()
    return {name: summarise(passes[name]) for name in names}


def summarise(passes: List[Dict]) -> Dict:
    traced, timed = passes[0], passes[1:]
    ops, fold = traced["ops"], traced["fold"]
    def quartiles(per_pass) -> List[float]:
        return statistics.quantiles([per_pass(p) for p in timed], n=4)

    cpu = quartiles(lambda p: p["cpu_s"] * 1e6 / p["ops"]["completed"])
    raw = quartiles(lambda p: p["raw_cpu_s"] * 1e6 / p["ops"]["completed"])
    setup = quartiles(lambda p: p["setup_s"])

    # virtual metrics: the median over the streams, each of them exact
    streams = passes[1:STREAMS + 1]
    end_to_end = {
        name: {"value": statistics.median(p["virtual"][name] for p in streams)}
        for name in traced["virtual"]
    }
    if not has_p99(ops["completed"]):
        end_to_end["lat_p99_vms"]["note"] = f"p95: only {ops['completed']} ops completed"
    # lower quartile: host noise only ever adds time, so the fast side of
    # the distribution is the stable one (see README "Host noise")
    end_to_end["host_cpu_us_per_op"] = {
        "value": cpu[0], "q1": cpu[0], "q3": cpu[2], "note": f"uncalibrated {raw[0]:.1f}",
    }
    end_to_end["host_pycalls_per_op"] = {"value": fold["total_calls"] / ops["completed"]}
    end_to_end["setup_s"] = {"value": setup[1], "q1": setup[0], "q3": setup[2]}

    per_layer = layer_metrics(fold, ops["completed"])
    per_layer["obs.trace_overhead_ratio"] = (
        traced["cpu_s"] * 1e6 / ops["completed"] / cpu[0]
    )
    per_layer.update(traced["counts"])
    failures: List[str] = []
    for result in passes:
        failures.extend(f for f in result["failures"] if f not in failures)
    return {
        "ops": ops,
        "failures": failures,
        "timed_passes": len(timed),
        "events": traced["events"],
        "end_to_end": end_to_end,
        "per_layer": {name: {"value": value} for name, value in per_layer.items()},
        "fold": fold,
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
def attach_units(results: Dict, catalogue: Dict) -> None:
    """Stamp every metric with its catalogue unit; refuse a mismatch in names."""
    for section in ("end_to_end", "per_layer"):
        units = {m["name"]: m["unit"] for m in catalogue[section]}
        for name, result in results.items():
            if set(result[section]) != set(units):
                odd = sorted(set(result[section]) ^ set(units))
                raise SystemExit(f"{name}: {section} metrics differ from BENCHMARK.json: {odd}")
            for metric, entry in result[section].items():
                entry["unit"] = units[metric]


def print_tables(results: Dict, catalogue: Dict, per_layer: bool) -> None:
    for name, result in results.items():
        ops = result["ops"]
        print(
            f"\n== {name}: {ops['completed']}/{ops['attempted']} ops completed, "
            f"{ops['shed']} shed, {ops['errors']} errors, {ops['lost']} lost; "
            f"{result['timed_passes']} timed passes, {result['events']} events"
        )
        print(f"   {'metric':<34}{'value':>16} {'unit':<6} {'better':<7} {'bound':>6}  spread")
        for spec in catalogue["end_to_end"]:
            entry = result["end_to_end"][spec["name"]]
            spread = ""
            if "q3" in entry:
                spread = f"IQR {entry['q1']:.6g}..{entry['q3']:.6g}"
            if "note" in entry:
                spread += f" ({entry['note']})"
            print(
                f"   {spec['name']:<34}{entry['value']:>16.6f} {spec['unit']:<6} "
                f"{spec['better']:<7} {spec['bound']:>6.1%}  {spread}"
            )
        if per_layer:
            for spec in catalogue["per_layer"]:
                entry = result["per_layer"][spec["name"]]
                print(
                    f"   {spec['name']:<34}{entry['value']:>16.6f} {spec['unit']:<6} "
                    f"{spec['better']:<7}"
                )
            shares = ", ".join(
                f"{layer} {share:.1%}" for layer, share in layer_shares(result["fold"])[:6]
            )
            print(f"   traced self-time shares: {shares}")
        for failure in result["failures"]:
            print(f"   CHECK FAILED: {failure}")


def write_folds(results: Dict) -> None:
    directory = os.path.join(ROOT, "out", "bench")
    os.makedirs(directory, exist_ok=True)
    for name, result in results.items():
        with open(os.path.join(directory, f"layers_{name}.json"), "w") as handle:
            json.dump(result["fold"], handle, indent=1, sort_keys=True)


def driver_line(result: Dict, section: str) -> str:
    """The one-object-per-run line the benchmark contract asks for."""
    ops = result["ops"]
    return json.dumps(
        {
            "correct": not result["failures"],
            "attempted": ops["attempted"],
            # a shed is the designed answer under overload, and is counted
            # in completed_ratio; "failed" is an op that got no answer
            "failed": ops["errors"] + ops["lost"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in result[section].items()
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], load_catalogue())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload, traced pass included")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed passes per workload (overrides --seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", help="write the full result set here (for compare)")
    parser.add_argument("--quick", action="store_true", help="small sizes, for the smoke test")
    args = parser.parse_args(argv)

    names = args.workload or list(WORKLOADS)
    catalogue = load_catalogue()
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = 2 if args.quick else 10
    results = measure(names, args.seed, args.quick, args.seconds or 0.0, repeats)
    attach_units(results, catalogue)
    print_tables(results, catalogue, bool(args.trace))
    if args.trace:
        write_folds(results)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seed": args.seed, "quick": args.quick, "workloads": results},
                      handle, indent=1, sort_keys=True)
    if len(names) == 1:
        print(driver_line(results[names[0]], "per_layer" if args.trace else "end_to_end"))
    return 1 if any(result["failures"] for result in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
