#!/usr/bin/env python
"""Recovery ablation: what retry + rejoin buy under a manager crash.

The seed treated both halves of a crash as final: a call that timed out
stayed failed, and a crashed member never came back (the group served on,
shrunk).  This bench runs the same manager-crash scenario — open binding,
aggressive 0.5 s call timeouts, crash at t=1.5 s into a 4 s burst — with
the recovery subsystem off (seed behaviour) and on (per-call retry policy
plus a scheduled restart), and prints the failed-call rate and the final
group size side by side.
"""

import sys

from repro.bench import emit, format_table, gate
from repro.scenario import run_scenario


def crash_spec(recover: bool) -> dict:
    faults = [{"at": 1.5, "kind": "crash", "target": "s0"}]
    retry = {}
    if recover:
        faults.append({"at": 3.0, "kind": "restart", "target": "s0"})
        retry = {"max_attempts": 6, "base_delay": 0.2, "factor": 2.0, "max_delay": 1.5}
    return {
        "name": f"bench-recovery-{'on' if recover else 'off'}",
        "seed": 7,
        "topology": "lan",
        "settle": 1.0,
        "group": {
            "replicas": 3,
            "style": "open",
            "ordering": "asymmetric",
            "restricted": True,
            "liveliness": "lively",
            "silence_period": 0.02,
            "suspicion_timeout": 0.1,
            "flush_timeout": 1.0,
            "retry": retry,
        },
        "traffic": {
            "arrivals": {"kind": "poisson", "rate": 1.0},
            "churn": {"initial": 10},
            "duration": 4.0,
            "drain": 25.0,
            "workload": "request_reply",
            "mode": "first",
            "timeout": 0.5,
            "bindings": 2,
        },
        "faults": faults,
        "slos": [],
    }


SECTION = "recovery"
WORKLOAD = {  # the two scenario specs, whole
    "seed (crash is final)": crash_spec(recover=False),
    "retry + rejoin": crash_spec(recover=True),
}
EXACT = ("offered", "completed", "errors", "retries", "rejoins", "final_view", "converged")


def summarize(report: dict) -> dict:
    traffic, counters = report["traffic"], report["metrics"]["counters"]
    return {
        "offered": traffic["offered"],
        "completed": traffic["completed"],
        "errors": traffic["errors"],
        "retries": counters.get("client.retries", 0),
        "rejoins": counters.get("server.rejoins", 0),
        "final_view": report["recovery"]["view"] or [],
        "converged": report["recovery"]["converged"],
    }


def measure() -> dict:
    return {label: summarize(run_scenario(spec)) for label, spec in WORKLOAD.items()}


def recovery_failures(result) -> list:
    """What recovery buys; deterministic, enforced in every mode."""
    seed, recovered = result["seed (crash is final)"], result["retry + rejoin"]
    claims = [
        # the seed loses the calls in the outage window and serves on shrunk
        (seed["errors"] > 0, "the seed run lost no calls to the crash"),
        (len(seed["final_view"]) == 2, "the seed run did not end with 2 members"),
        # retry bridges the outage, restart brings the member back
        (recovered["errors"] == 0, "calls failed despite retry"),
        (recovered["converged"], "the recovered group did not converge"),
        (len(recovered["final_view"]) == 3, "the restarted member is not back in the view"),
        (recovered["retries"] >= 1, "no call was retried"),
        (recovered["rejoins"] >= 1, "no member rejoined"),
    ]
    return [message for ok, message in claims if not ok]


def report(result) -> None:
    emit(
        format_table(
            ["configuration", "offered", "completed", "failed", "failed %",
             "retries", "rejoins", "final view size"],
            [
                [label, run["offered"], run["completed"], run["errors"],
                 f"{100.0 * run['errors'] / run['offered']:.1f}%",
                 run["retries"], run["rejoins"], len(run["final_view"])]
                for label, run in result.items()
            ],
            title="Manager crash, 0.5 s call timeouts (3 replicas, 2 bindings, LAN)",
        )
    )


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[recovery_failures]))
