#!/usr/bin/env python
"""Overload survival: goodput with vs without admission control.

Three deterministic scenario runs over the same 3-replica open-style LAN
deployment:

1. **Capacity** — open-loop arrivals far above what the group can serve,
   but with the generator's ``max_in_flight`` cap keeping a fixed closed-
   loop-like concurrency.  The completion rate is the group's sustainable
   capacity in requests/second; everything below is judged against it.
2. **Overload + admission** — offered load at ``overload_factor`` (7) times
   the measured capacity, with per-binding admission control
   (``repro.overload``) and bounded flow-control queues.  The run embeds a
   ``degradation`` SLO — goodput at least ``GOODPUT_FLOOR`` of capacity,
   admitted-call p99 under ``ADMITTED_P99_MS``, shed ratio bounded — and
   must PASS it: the group sheds the excess early and keeps serving at
   capacity with flat latency.
3. **Overload, no admission** — the identical offered load with admission
   off (seed behaviour).  The same SLO must FAIL: every arrival enters the
   ordering pipeline, queues grow for the whole window, and the run decays
   into timeout storms — the collapse the admission path exists to
   prevent.

Gates:

- **Ablation contrast** (deterministic): run 2 passes its degradation SLO
  and run 3 fails it.
- **Behaviour** (deterministic): capacity, offered rate and every per-run
  count, goodput, latency and verdict must exactly match the ``overload``
  section of ``benchmarks/gates.json`` under ``--check`` (see
  repro.bench.gate) — any drift means the admission or protocol behaviour
  changed underneath the bench.

Without ``--check`` the section is rewritten.
"""

from __future__ import annotations

import sys

from repro.bench import gate
from repro.bench.report import emit, format_table
from repro.scenario.runner import run_scenario

SECTION = "overload"
WORKLOAD = {
    "topology": "lan",
    "replicas": 3,
    "bindings": 4,
    "duration": 5.0,  # traffic window per run (virtual seconds)
    "drain": 25.0,
    "timeout": 10.0,  # per call: what uncontrolled overload runs into
    "seed": 42,
    "overload_factor": 7.0,  # offered load as a multiple of measured capacity
    "admission": {"max_inflight": 12},
    "flow_max_queue": 256,
}
# every value of a run comes out of the scenario report: virtual time or counts
EXACT = ("capacity_per_s", "offered_rate_per_s", "runs")

GOODPUT_FLOOR = 0.8  # goodput must stay >= this fraction of capacity
ADMITTED_P99_MS = 250.0  # latency bound on the calls that were admitted
MAX_SHED_RATIO = 0.95  # even under 7x load, some work must get through

CAPACITY_PROBE_RATE = 2000.0  # far above capacity; the in-flight cap governs
CAPACITY_IN_FLIGHT = 16


def base_spec(name: str) -> dict:
    return {
        "name": name,
        "seed": WORKLOAD["seed"],
        "topology": WORKLOAD["topology"],
        "group": {
            "replicas": WORKLOAD["replicas"],
            "style": "open",
            "ordering": "asymmetric",
        },
        "traffic": {
            "arrivals": {"kind": "poisson", "rate": CAPACITY_PROBE_RATE},
            "churn": {"initial": 1},
            "duration": WORKLOAD["duration"],
            "drain": WORKLOAD["drain"],
            "workload": "request_reply",
            "mode": "first",
            "bindings": WORKLOAD["bindings"],
            "timeout": WORKLOAD["timeout"],
        },
        "slos": [],
    }


def degradation_slo(capacity: float) -> dict:
    return {
        "kind": "degradation",
        "name": "graceful-degradation",
        "capacity": capacity,
        "min_goodput_fraction": GOODPUT_FLOOR,
        "stat": "p99",
        "max_ms": ADMITTED_P99_MS,
        "max_shed_ratio": MAX_SHED_RATIO,
        "min_count": 100,
    }


def summarize(report: dict) -> dict:
    traffic = report["traffic"]
    counters = report["metrics"]["counters"]
    slos = {slo["name"]: slo["ok"] for slo in report["slos"]}
    return {
        "offered": traffic["offered"],
        "completed": traffic["completed"],
        "errors": traffic["errors"],
        "shed": traffic["shed"],
        "lost": traffic["lost"],
        "goodput_per_s": round(traffic["completed"] / WORKLOAD["duration"], 2),
        "p95_ms": round(traffic["latency_ms"].get("p95", 0.0), 3),
        "max_ms": round(traffic["latency_ms"].get("max", 0.0), 3),
        "admitted": counters.get("overload.admitted", 0),
        "overload_shed": counters.get("overload.shed", 0),
        "drained": report["sim"]["drained"],
        "slos": slos,
        "passed": report["passed"],
    }


def measure() -> dict:
    # phase 1: capacity under a fixed concurrency cap
    capacity_spec = base_spec("overload-capacity")
    capacity_spec["traffic"]["max_in_flight"] = CAPACITY_IN_FLIGHT
    capacity_report = run_scenario(capacity_spec)
    capacity = round(
        capacity_report["traffic"]["completed"] / WORKLOAD["duration"], 2
    )
    if capacity <= 0:
        raise SystemExit("capacity probe completed no requests")
    offered_rate = round(WORKLOAD["overload_factor"] * capacity, 2)

    # phase 2: the same deployment under overload, with admission
    admitted_spec = base_spec("overload-with-admission")
    admitted_spec["traffic"]["arrivals"] = {
        "kind": "poisson", "rate": offered_rate,
    }
    admitted_spec["group"]["admission"] = dict(WORKLOAD["admission"])
    admitted_spec["group"]["flow_max_queue"] = WORKLOAD["flow_max_queue"]
    admitted_spec["slos"] = [degradation_slo(capacity)]
    admitted_report = run_scenario(admitted_spec)

    # phase 3: identical overload, no admission (seed behaviour)
    uncontrolled_spec = base_spec("overload-no-admission")
    uncontrolled_spec["traffic"]["arrivals"] = {
        "kind": "poisson", "rate": offered_rate,
    }
    uncontrolled_spec["slos"] = [degradation_slo(capacity)]
    uncontrolled_report = run_scenario(uncontrolled_spec)

    return {
        "capacity_per_s": capacity,
        "offered_rate_per_s": offered_rate,
        "runs": {
            "capacity": summarize(capacity_report),
            "admission": summarize(admitted_report),
            "no_admission": summarize(uncontrolled_report),
        },
    }


def contrast_failures(results) -> list:
    """The ablation bars; deterministic, enforced in every mode."""
    failures = []
    runs = results["runs"]
    if not runs["admission"]["slos"].get("graceful-degradation", False):
        failures.append(
            "admission run failed its degradation SLO: goodput "
            f"{runs['admission']['goodput_per_s']}/s vs capacity "
            f"{results['capacity_per_s']}/s (floor {GOODPUT_FLOOR})"
        )
    if not runs["admission"]["drained"] or runs["admission"]["lost"]:
        failures.append("admission run lost in-flight requests")
    if runs["no_admission"]["slos"].get("graceful-degradation", True):
        failures.append(
            "no-admission run PASSED the degradation SLO — overload no "
            "longer collapses without admission, so this ablation "
            "demonstrates nothing; re-examine the workload"
        )
    if runs["admission"]["errors"] >= runs["no_admission"]["errors"] and (
        runs["no_admission"]["errors"] > 0
    ):
        failures.append(
            f"admission run has {runs['admission']['errors']} errors, not "
            f"fewer than the uncontrolled run's {runs['no_admission']['errors']}"
        )
    return failures


def report(results) -> None:
    rows = [
        [
            label,
            run["offered"],
            run["completed"],
            run["shed"],
            run["errors"],
            run["goodput_per_s"],
            run["p95_ms"],
            run["max_ms"],
            "yes" if run["slos"].get("graceful-degradation") else
            ("-" if "graceful-degradation" not in run["slos"] else "NO"),
        ]
        for label, run in results["runs"].items()
    ]
    emit(
        format_table(
            ["run", "offered", "completed", "shed", "errors", "goodput/s",
             "p95 (ms)", "max (ms)", "SLO"],
            rows,
            title=(
                f"Overload survival: capacity {results['capacity_per_s']}/s, "
                f"offered {results['offered_rate_per_s']}/s "
                f"({WORKLOAD['overload_factor']:.0f}x) with vs without admission"
            ),
        )
    )


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[contrast_failures]))
