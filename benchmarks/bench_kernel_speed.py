#!/usr/bin/env python
"""Raw kernel speed: events/sec on the protocol hot path.

The gate behind the hot-path optimisation work (slotted structs, marshal
fast paths, the tracer-skip event loop): a fixed 6-member asymmetric peer
group on the LAN topology multicasting 300 messages each, measured in
process CPU time.  The workload exercises every layer the optimisations
touched — the event heap, marshalling, the reliable channels, stability
tracking, the ORB dispatch path — in one deterministic run.

Two kinds of result, mirroring bench_obs_overhead.py:

- **Behaviour** (``exact``: deterministic, machine-independent): the run
  must process *exactly* the committed number of simulation events, deliver
  exactly the committed number of group messages and see the committed
  mean latency.  An optimisation that changes any of them changed the
  simulation, not just its speed — a hard failure, never a tolerance.
- **Speed** (``timed``: machine-dependent): events/sec and
  delivered-msgs/sec, best of ``repeats`` after one discarded warmup,
  measured with ``time.process_time`` so a busy CI neighbour cannot fail
  the gate.  events/sec is floored against the committed value.

``--check`` gates the run against the ``kernel_speed`` section of
``benchmarks/gates.json`` (see repro.bench.gate); without it the section is
rewritten.
"""

from __future__ import annotations

import gc
import sys
import time

from repro.bench import gate
from repro.bench.harness import peer_point
from repro.bench.report import emit, format_table
from repro.obs import Observability

SECTION = "kernel_speed"
WORKLOAD = {
    "topology": "lan",
    "members": 6,
    "ordering": "asymmetric",
    "multicasts": 300,  # per member
    "seed": 42,
    "repeats": 5,  # best-of-N CPU times
}
EXACT = ("events", "delivered", "latency_ms")
FLOORS = ("events_per_sec",)


def run_once():
    """One run: CPU time plus the deterministic behaviour values."""
    obs = Observability()
    # collector cycles land on repeats at random, so time with GC off
    # (timeit-style); collect before enabling to start from a clean heap
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        point = peer_point(
            WORKLOAD["topology"],
            WORKLOAD["members"],
            WORKLOAD["ordering"],
            multicasts=WORKLOAD["multicasts"],
            seed=WORKLOAD["seed"],
            obs=obs,
        )
        cpu = time.process_time() - start
    finally:
        gc.enable()
    events = obs.sim.events_processed
    delivered = obs.metrics.counter_value("gc.delivered")
    return {
        "events": events,
        "delivered": delivered,
        "latency_ms": round(point.latency_ms, 3),
        "cpu_s": round(cpu, 4),
        "events_per_sec": round(events / cpu, 1),
        "delivered_per_sec": round(delivered / cpu, 1),
    }


def measure():
    warmup = run_once()  # discarded: pays import/allocator/branch warmup
    best = None
    for _ in range(WORKLOAD["repeats"]):
        result = run_once()
        # the deterministic values must not wobble between repeats
        for key in EXACT:
            if result[key] != warmup[key]:
                raise SystemExit(
                    f"NONDETERMINISM: {key} changed between repeats "
                    f"({warmup[key]} vs {result[key]}) — same-process runs "
                    "of one seed must replay identically"
                )
        if best is None or result["cpu_s"] < best["cpu_s"]:
            best = result
    return best


def report(result) -> None:
    emit(
        format_table(
            ["sim events", "delivered", "cpu (s)", "events/sec", "delivered/sec"],
            [[
                result["events"],
                result["delivered"],
                result["cpu_s"],
                result["events_per_sec"],
                result["delivered_per_sec"],
            ]],
            title=(
                "Kernel speed "
                "({topology}, {members}-member {ordering} peer group "
                "x {multicasts} multicasts, seed {seed}, "
                "best of {repeats})".format(**WORKLOAD)
            ),
        )
    )


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, floors=FLOORS))
