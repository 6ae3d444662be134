#!/usr/bin/env python
"""Raw kernel speed: events/sec on the protocol hot path.

The gate behind the hot-path optimisation work (slotted structs, marshal
fast paths, the tracer-skip event loop): a fixed 6-member asymmetric peer
group on the LAN topology multicasting 300 messages each, measured in
process CPU time.  The workload exercises every layer the optimisations
touched — the event heap, marshalling, the reliable channels, stability
tracking, the ORB dispatch path — in one deterministic run.

Three kinds of result:

- **Behaviour** (``exact``: deterministic, machine-independent): the run
  must process *exactly* the committed number of simulation events, deliver
  exactly the committed number of group messages and see the committed
  mean latency.  An optimisation that changes any of them changed the
  simulation, not just its speed — a hard failure, never a tolerance.
- **Host cost** (``exact``): Python calls per simulation event
  (``pycalls_per_event``, counted by cProfile through
  ``repro.bench.profiling.count_calls`` in one run after the warmup).  A
  deterministic run makes the same calls on any host, so one extra call per
  hop fails the gate where a timing would drown in noise.  CPython 3.11 and
  3.12 make different calls for the same code, so the value is stored per
  interpreter (``major.minor``); a run compares its own interpreter's value
  and carries the others' over unchanged.
- **Speed** (``timed``: machine-dependent, informational): events/sec and
  delivered-msgs/sec, best of ``repeats`` after the warmup, measured with
  ``time.process_time``.

``--check`` gates the run against the ``kernel_speed`` section of
``benchmarks/gates.json`` (see repro.bench.gate); without it the section is
rewritten.
"""

from __future__ import annotations

import contextlib
import gc
import json
import sys
import time

from repro.bench import gate
from repro.bench.harness import peer_point
from repro.bench.profiling import count_calls
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
BEHAVIOUR = ("events", "delivered", "latency_ms")
EXACT = BEHAVIOUR + ("pycalls_per_event",)
INTERPRETER = "{}.{}".format(*sys.version_info[:2])


def run_point(obs):
    return peer_point(
        WORKLOAD["topology"],
        WORKLOAD["members"],
        WORKLOAD["ordering"],
        multicasts=WORKLOAD["multicasts"],
        seed=WORKLOAD["seed"],
        obs=obs,
    )


@contextlib.contextmanager
def collector_off():
    """Collector cycles land on runs at random (and the finalisers they run
    are calls too), so measure with GC off, timeit-style, starting from a
    clean heap."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_once():
    """One run: CPU time plus the deterministic behaviour values."""
    obs = Observability()
    with collector_off():
        start = time.process_time()
        point = run_point(obs)
        cpu = time.process_time() - start
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


def pycalls_per_event():
    """This interpreter's calls per event beside every other interpreter's
    committed value (none yet when the section is first written)."""
    obs = Observability()
    with collector_off():
        _point, calls = count_calls(lambda: run_point(obs))
    try:
        with open(gate.GATES, encoding="utf-8") as fp:
            counts = json.load(fp)[SECTION]["exact"]["pycalls_per_event"]
    except (OSError, KeyError):
        counts = {}
    return {**counts, INTERPRETER: round(calls / obs.sim.events_processed, 4)}


def measure():
    warmup = run_once()  # discarded: pays import/allocator/branch warmup
    best = None
    for _ in range(WORKLOAD["repeats"]):
        result = run_once()
        # the deterministic values must not wobble between repeats
        for key in BEHAVIOUR:
            if result[key] != warmup[key]:
                raise SystemExit(
                    f"NONDETERMINISM: {key} changed between repeats "
                    f"({warmup[key]} vs {result[key]}) — same-process runs "
                    "of one seed must replay identically"
                )
        if best is None or result["cpu_s"] < best["cpu_s"]:
            best = result
    best["pycalls_per_event"] = pycalls_per_event()
    return best


def report(result) -> None:
    emit(
        format_table(
            ["sim events", "delivered", "calls/event", "cpu (s)", "events/sec", "delivered/sec"],
            [[
                result["events"],
                result["delivered"],
                result["pycalls_per_event"][INTERPRETER],
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
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report, exact=EXACT))
