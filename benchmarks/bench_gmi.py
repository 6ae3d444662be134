#!/usr/bin/env python
"""Combined-invocation fan-in: flat vs tree crossover over cohort size.

A combined invocation rendezvous-merges N callers' contributions into one
group call.  The **flat** scheme sends every contribution straight to the
rank-0 root, which pays :data:`~repro.core.combined.COMBINE_COST` per
contribution *serially* — O(N) on the root's CPU.  The **tree** scheme
routes contributions up a binary combining tree, so no node ever merges
more than two remote contributions and the critical path grows with the
tree *depth* — O(log N) — at the price of extra hops.

On a LAN the hop is cheap and the merge is not, so the schemes cross over
as the cohort grows: flat wins (or ties) for small cohorts, tree must win
from 8 callers up.  This benchmark pins that crossover:

- **Crossover bars** (deterministic): mean logical-call latency of
  ``combined_tree`` must be strictly below ``combined_flat`` at every
  cohort size >= ``CROSSOVER_AT`` (8), and the tree's advantage must grow
  monotonically with the cohort size.
- **Behaviour** (deterministic): per-configuration completed-call,
  contribution and latency figures must exactly match the ``gmi`` section
  of ``benchmarks/gates.json`` under ``--check`` (see repro.bench.gate) —
  virtual time makes the sweep reproducible, so any drift means the
  combined machinery changed.

Without ``--check`` the section is rewritten.
"""

from __future__ import annotations

import sys

from repro.apps.mapreduce import MapReduceServant
from repro.bench import gate
from repro.bench.env import Environment
from repro.bench.report import emit, format_table
from repro.bench.workloads import ClosedLoopClient, run_until_done
from repro.core import SchemeConfig
from repro.groupcomm.config import GroupConfig, Liveliness, Ordering
from repro.sim.process import all_of

SECTION = "gmi"
COHORTS = (2, 4, 8, 16)
WORKLOAD = {
    "topology": "lan",
    "replicas": 3,
    "requests": 30,  # timed logical calls per configuration
    "warmup": 3,  # untimed logical calls per configuration
    "cohorts": COHORTS,
    "seed": 42,
}
EXACT = ("completed", "contributions", "combined_calls", "mean_latency_ms")

SHAPES = ("combined_flat", "combined_tree")
CROSSOVER_AT = 8  # tree must beat flat from this cohort size up


def run_config(shape: str, callers: int) -> dict:
    env = Environment(config=WORKLOAD["topology"], seed=WORKLOAD["seed"])
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        liveliness=Liveliness.EVENT_DRIVEN,
        sequencer_hint="s0",
        suspicion_timeout=10.0,
        flush_timeout=5.0,
    )
    env.serve_replicas("agg", MapReduceServant, WORKLOAD["replicas"], config=config)

    scheme = SchemeConfig(
        invocation=shape,
        reply="combine",
        reducer="max",
        callers=[f"c{i}" for i in range(callers)],  # bind_clients' node names
        combine_id="bench",
        arg_reducer="sum",
    )

    def bind(service):
        return service.bind("agg", scheme=scheme, suspicion_timeout=10.0, flush_timeout=5.0)

    bindings = env.bind_clients(callers, bind, settle=1.5)

    # closed-loop cohort: every iteration is one logical combined call
    driver = ClosedLoopClient(
        env.sim,
        issue=lambda i: all_of(
            [
                binding.invoke("aggregate", (i + binding.rank,), timeout=60.0)
                for binding in bindings
            ]
        ),
        requests=WORKLOAD["requests"],
        warmup=WORKLOAD["warmup"],
        name="gmi-driver",
    )
    run_until_done(env.sim, [driver.done], deadline=env.sim.now + 600.0)

    completed = len(driver.latencies.values)
    metrics = env.sim.obs.metrics
    return {
        "completed": completed,
        "contributions": metrics.counter_value("gmi.contributions"),
        "combined_calls": metrics.counter_value("gmi.combined.calls"),
        "mean_latency_ms": round(driver.latency_sum / max(completed, 1) * 1e3, 3),
    }


def measure() -> dict:
    return {
        f"{shape}/{callers}": run_config(shape, callers)
        for shape in SHAPES
        for callers in COHORTS
    }


def crossover_failures(results) -> list:
    """The crossover bars; deterministic, enforced in every mode."""
    failures = []
    advantage = {}
    for callers in COHORTS:
        flat = results[f"combined_flat/{callers}"]["mean_latency_ms"]
        tree = results[f"combined_tree/{callers}"]["mean_latency_ms"]
        advantage[callers] = flat / tree
        if callers >= CROSSOVER_AT and not tree < flat:
            failures.append(
                f"tree does not beat flat at {callers} callers: "
                f"{tree:.3f}ms vs {flat:.3f}ms"
            )
    for lo, hi in zip(COHORTS, COHORTS[1:]):
        if not advantage[hi] > advantage[lo]:
            failures.append(
                f"tree advantage not growing with the cohort: "
                f"{advantage[hi]:.3f}x at {hi} callers <= "
                f"{advantage[lo]:.3f}x at {lo}"
            )
    return failures


def report(results) -> None:
    rows = []
    for callers in COHORTS:
        flat = results[f"combined_flat/{callers}"]
        tree = results[f"combined_tree/{callers}"]
        winner = "tree" if tree["mean_latency_ms"] < flat["mean_latency_ms"] else "flat"
        rows.append(
            [
                callers,
                flat["completed"],
                flat["contributions"],
                flat["mean_latency_ms"],
                tree["mean_latency_ms"],
                f"{flat['mean_latency_ms'] / tree['mean_latency_ms']:.2f}x",
                winner,
            ]
        )
    emit(
        format_table(
            ["callers", "calls", "contribs", "flat lat (ms)", "tree lat (ms)",
             "flat/tree", "winner"],
            rows,
            title=(
                "Combined fan-in crossover: {replicas} replicas, "
                "{requests} logical calls per cohort "
                "({topology}, seed {seed}; tree must win from "
                "{crossover} callers)".format(crossover=CROSSOVER_AT, **WORKLOAD)
            ),
        )
    )


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[crossover_failures]))
