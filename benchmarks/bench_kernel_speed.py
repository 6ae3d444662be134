#!/usr/bin/env python
"""Raw kernel speed: Python calls per event on the protocol hot path.

The gate behind the hot-path optimisation work (slotted structs, marshal
fast paths, the tracer-skip event loop): a fixed 6-member asymmetric peer
group on the LAN topology multicasting 300 messages each, one run that
exercises the event heap, the network, the reliable channels, stability
tracking and the ORB dispatch path.

- **Behaviour** (``exact``): simulation events, delivered group messages
  and mean latency.  An optimisation that changes any of them changed the
  simulation, not just its speed.
- **Host cost** (``exact``): Python calls per simulation event
  (``pycalls_per_event``), counted by cProfile and stored per interpreter.
  A deterministic run makes the same calls on any host, so one extra call
  per hop fails the gate where a timing would drown in noise.
- **Speed** (``timed``, informational): events/sec and delivered-msgs/sec
  of one run in process CPU time.

The counting run doubles as the warm-up, and the timed run must replay it
exactly (``repro.bench.profiling.count_then_time``).  ``--check`` gates the
run against the ``kernel_speed`` section of ``benchmarks/gates.json`` (see
repro.bench.gate); without it the section is rewritten.
"""

from __future__ import annotations

import sys

from repro.bench import gate
from repro.bench.harness import peer_point
from repro.bench.profiling import count_then_time
from repro.bench.report import emit, format_table
from repro.obs import Observability

SECTION = "kernel_speed"
WORKLOAD = {
    "topology": "lan",
    "members": 6,
    "ordering": "asymmetric",
    "multicasts": 300,  # per member
    "seed": 42,
}
EXACT = ("events", "delivered", "latency_ms", "pycalls_per_event")


def run_once(cost):
    """One run, its work measured by ``cost``: behaviour values and cost."""
    obs = Observability()
    point, spent = cost(lambda: peer_point(
        WORKLOAD["topology"],
        WORKLOAD["members"],
        WORKLOAD["ordering"],
        multicasts=WORKLOAD["multicasts"],
        seed=WORKLOAD["seed"],
        obs=obs,
    ))
    behaviour = {
        "events": obs.sim.events_processed,
        "delivered": obs.metrics.counter_value("gc.delivered"),
        "latency_ms": round(point.latency_ms, 3),
    }
    return behaviour, spent


def measure():
    result, calls, cpu = count_then_time(run_once)
    result["pycalls_per_event"] = gate.per_interpreter(
        SECTION, ("pycalls_per_event",), round(calls / result["events"], 4)
    )
    result["cpu_s"] = round(cpu, 4)
    result["events_per_sec"] = round(result["events"] / cpu, 1)
    result["delivered_per_sec"] = round(result["delivered"] / cpu, 1)
    return result


def report(result) -> None:
    columns = ("events", "delivered", "pycalls_per_event", "cpu_s", "events_per_sec",
               "delivered_per_sec")
    calls = result["pycalls_per_event"][gate.INTERPRETER]
    values = {**result, "pycalls_per_event": f"{calls:.4f}"}
    title = (
        "Kernel speed ({topology}, {members}-member {ordering} peer group "
        "x {multicasts} multicasts, seed {seed})".format(**WORKLOAD)
    )
    emit(format_table(columns, [[values[key] for key in columns]], title=title))


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report, exact=EXACT))
