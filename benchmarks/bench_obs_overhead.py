#!/usr/bin/env python
"""Observability overhead: trace-off vs 1%-sampled vs full tracing.

Always-on observability is only viable if the always-on parts are close to
free.  This benchmark runs the same closed-style request-reply workload
with tracing disabled, head-sampled at 1% and full, one explicit
:class:`repro.obs.Observability` per run, and counts what each costs.

- **Behaviour** (``exact``): events, deliveries, spans and latency.
- **Host cost** (``exact``): Python calls per invocation
  (``pycalls_per_invocation``), counted by cProfile and stored per
  interpreter.  What tracing costs is the difference to trace-off, in
  calls, and one extra call per span fails the gate.
- **Speed** (``timed``, informational): CPU seconds and events/sec of one
  run per configuration.

Each configuration's counting run doubles as its warm-up, and its timed run
must replay it exactly (``repro.bench.profiling.count_then_time``).  In
either mode the run fails unless all three run the identical simulation
(tracing observes the protocol, it never perturbs it), sampling thins the
trace, 1% sampling adds under a tenth of the calls full tracing adds, and
full tracing costs at most ``MAX_CALLS_PER_SPAN`` calls per span it
records.  ``--check`` gates the run against the
``obs_overhead`` section of ``benchmarks/gates.json`` (see
repro.bench.gate); without it the section is rewritten.
"""

from __future__ import annotations

import sys

from repro.bench import gate
from repro.bench.harness import request_reply_point
from repro.bench.profiling import count_then_time
from repro.bench.report import emit, format_table
from repro.core.modes import Mode
from repro.obs import Observability, TraceConfig

SECTION = "obs_overhead"
WORKLOAD = {
    "topology": "lan",
    "clients": 4,
    "requests": 60,  # per client
    "replicas": 3,
    "style": "closed",
    "seed": 42,
}
EXACT = ("events", "delivered", "spans", "latency_ms", "pycalls_per_invocation")
INVOCATIONS = WORKLOAD["clients"] * WORKLOAD["requests"]
#: what full tracing may cost per span over trace-off, in Python calls
MAX_CALLS_PER_SPAN = 10

#: the three measured configurations, in report order
CONFIGS = (
    ("trace-off", lambda: Observability()),
    ("sampled-1pct", lambda: Observability(trace=TraceConfig(sample_rate=0.01))),
    ("full-trace", lambda: Observability(trace=True)),
)


def run_once(make_obs, cost):
    """One run, its work measured by ``cost``: behaviour values and cost."""
    obs = make_obs()
    point, spent = cost(lambda: request_reply_point(
        WORKLOAD["topology"],
        WORKLOAD["clients"],
        replicas=WORKLOAD["replicas"],
        style=WORKLOAD["style"],
        mode=Mode.ALL,
        requests=WORKLOAD["requests"],
        seed=WORKLOAD["seed"],
        obs=obs,
    ))
    behaviour = {
        "events": obs.sim.events_processed,
        "delivered": obs.metrics.counter_value("gc.delivered"),
        "spans": len(obs.trace_records()),
        "latency_ms": round(point.latency_ms, 3),
    }
    return behaviour, spent


def measure():
    results = {}
    for name, make_obs in CONFIGS:
        result, calls, cpu = count_then_time(lambda cost: run_once(make_obs, cost))
        result["pycalls_per_invocation"] = gate.per_interpreter(
            SECTION, (name, "pycalls_per_invocation"), round(calls / INVOCATIONS, 4)
        )
        result["cpu_s"] = round(cpu, 4)
        result["events_per_sec"] = round(result["events"] / cpu, 1)
        results[name] = result
    return results


def extra_calls(results, name) -> float:
    """What tracing as ``name`` adds over trace-off, in calls per invocation."""
    calls = {
        config: result["pycalls_per_invocation"][gate.INTERPRETER]
        for config, result in results.items()
    }
    return calls[name] - calls["trace-off"]


def report(results) -> None:
    rows = [
        [name, result["events"], result["delivered"], result["spans"],
         f"{result['pycalls_per_invocation'][gate.INTERPRETER]:.1f}",
         f"{extra_calls(results, name):+.1f}", result["cpu_s"], result["events_per_sec"]]
        for name, result in results.items()
    ]
    headers = ["configuration", "events", "delivered", "spans", "pycalls_per_invocation",
               "over trace-off", "cpu_s", "events_per_sec"]
    title = (
        "Observability overhead: host calls per invocation ({topology}, {clients} "
        "{style} clients x {requests} requests, seed {seed})".format(**WORKLOAD)
    )
    emit(format_table(headers, rows, title=title))


def tracing_failures(results) -> list:
    """Tracing observes the simulation without changing it, 1% sampling
    thins the trace and adds under a tenth of full tracing's calls, and a
    recorded span costs at most ``MAX_CALLS_PER_SPAN`` calls."""
    off, sampled, full = (results[name] for name, _ in CONFIGS)
    failures = [
        f"{name} ran {result['events']} events / {result['delivered']} deliveries, trace-off "
        f"{off['events']} / {off['delivered']}: tracing changed the simulation"
        for name, result in results.items()
        if (result["events"], result["delivered"]) != (off["events"], off["delivered"])
    ]
    if not off["spans"] == 0 < sampled["spans"] < full["spans"]:
        failures.append(
            f"spans trace-off / sampled / full: {off['spans']} / {sampled['spans']} / "
            f"{full['spans']}, expected 0 < sampled < full"
        )
    sampled_calls = extra_calls(results, "sampled-1pct")
    full_calls = extra_calls(results, "full-trace")
    if not sampled_calls < full_calls / 10:
        failures.append(
            f"1%-sampled tracing adds {sampled_calls:.1f} calls per invocation, not under "
            f"a tenth of full tracing's {full_calls:.1f}"
        )
    per_span = full_calls * INVOCATIONS / full["spans"]
    if not per_span <= MAX_CALLS_PER_SPAN:
        failures.append(
            f"full tracing costs {per_span:.1f} calls per span, over {MAX_CALLS_PER_SPAN}"
        )
    return failures


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[tracing_failures]))
