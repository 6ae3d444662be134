#!/usr/bin/env python
"""Observability overhead: trace-off vs 1%-sampled vs full tracing.

Always-on observability is only viable if the always-on parts are close to
free.  This benchmark runs the same closed-style request-reply workload
three times with an explicit :class:`repro.obs.Observability` per run —
tracing disabled, head-sampled at 1%, and full tracing — and measures the
simulation kernel's event rate for each.

Two kinds of result:

- **Behaviour** (deterministic, machine-independent): all three runs must
  process the *identical* number of simulation events and deliver the
  identical number of group messages.  Tracing observes the protocol; it
  must never perturb it.
- **Speed** (machine-dependent): events/sec per configuration, best of
  ``repeats`` after one discarded warmup pass per configuration,
  measured in process CPU time (``time.process_time``) so a busy CI
  neighbour cannot fail the gate.  What tracing costs is stated in absolute
  terms, host microseconds per invocation (``trace_us_per_invocation``):
  the *median* of per-repeat paired differences against trace-off (each
  repeat runs the configurations back-to-back, so frequency drift mostly
  cancels within a pair, and the median is robust to the odd noisy repeat
  in either direction) over the workload's invocations.  ``overhead_pct``,
  the same pairs as ratios, is informational: it rises whenever the
  untraced run gets cheaper, with tracing's own cost where it was.

In either mode the run fails if a tracing path exceeds its budget
(``BUDGET_US``).  ``--check`` gates the run against the
``obs_overhead`` section of ``benchmarks/gates.json`` (see
repro.bench.gate): events, deliveries, span counts and latency of all
three configurations exactly, trace-off events/sec against its floor.
Without it the section is rewritten.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time

from repro.bench import gate
from repro.bench.report import emit, format_table
from repro.bench.harness import request_reply_point
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
    "repeats": 10,  # best-of-N CPU times
}
EXACT = ("events", "delivered", "spans", "latency_ms")
FLOORS = ("trace-off.events_per_sec",)

#: the three measured configurations, in report order
CONFIGS = (
    ("trace-off", lambda: Observability()),
    ("sampled-1pct", lambda: Observability(trace=TraceConfig(sample_rate=0.01))),
    ("full-trace", lambda: Observability(trace=True)),
)

#: what a tracing path may cost, in host µs per invocation.  Absolute, so a
#: cheaper untraced run cannot spend the headroom (the relative budget this
#: replaces lost half of its own that way, twice).  Fifteen runs on the
#: reference host read 119…316 for full tracing (typically ≈ 190: some 26
#: spans per invocation at 6–7 µs) and −3…64 for 1 % sampling (typically
#: ≈ 25); the budgets sit above that spread and still catch a sampled path
#: that drifts to full cost, or a full path that doubles.
BUDGET_US = {"sampled-1pct": 100.0, "full-trace": 400.0}


def run_once(make_obs):
    """One run: CPU time plus the deterministic behaviour counters."""
    obs = make_obs()
    # collector cycles land on repeats at random, so time with GC off
    # (timeit-style); collect before enabling to start from a clean heap
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        point = request_reply_point(
            WORKLOAD["topology"],
            WORKLOAD["clients"],
            replicas=WORKLOAD["replicas"],
            style=WORKLOAD["style"],
            mode=Mode.ALL,
            requests=WORKLOAD["requests"],
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
        "spans": len(obs.trace_records()),
        "latency_ms": round(point.latency_ms, 3),
        "cpu_s": round(cpu, 4),
        "events_per_sec": round(events / cpu, 1),
    }


def measure():
    # one discarded warmup per configuration: the first run of a process
    # pays import, allocator, and branch-predictor warmup that would
    # otherwise be charged to whichever configuration happened to go first
    for _name, make_obs in CONFIGS:
        run_once(make_obs)
    # interleave the timed repeats (off, sampled, full, off, sampled, ...)
    # so CPU frequency / cache drift hits every configuration equally
    # instead of biasing whichever block ran last; keep the best time each
    results = {}
    cpu_per_repeat = {name: [] for name, _ in CONFIGS}
    for _ in range(WORKLOAD["repeats"]):
        for name, make_obs in CONFIGS:
            result = run_once(make_obs)
            cpu_per_repeat[name].append(result["cpu_s"])
            if name not in results or result["cpu_s"] < results[name]["cpu_s"]:
                results[name] = result
    invocations = WORKLOAD["clients"] * WORKLOAD["requests"]
    for name in results:
        pairs = list(zip(cpu_per_repeat[name], cpu_per_repeat["trace-off"]))
        extra_s = statistics.median(cost - base for cost, base in pairs)
        ratio = statistics.median(cost / base for cost, base in pairs)
        results[name]["trace_us_per_invocation"] = round(extra_s * 1e6 / invocations, 1)
        results[name]["overhead_pct"] = round((ratio - 1.0) * 100.0, 2)

    off = results["trace-off"]
    # tracing must observe the protocol, never perturb it: every
    # configuration replays the identical deterministic simulation
    for name, result in results.items():
        if (result["events"], result["delivered"]) != (off["events"], off["delivered"]):
            raise SystemExit(
                f"BEHAVIOUR DRIFT: {name} ran {result['events']} events / "
                f"{result['delivered']} deliveries vs trace-off "
                f"{off['events']} / {off['delivered']} — tracing changed the simulation"
            )
    if off["spans"] != 0:
        raise SystemExit(f"trace-off recorded {off['spans']} spans; expected 0")
    if not 0 < results["sampled-1pct"]["spans"] < results["full-trace"]["spans"]:
        raise SystemExit(
            "sampling did not thin the trace: "
            f"sampled={results['sampled-1pct']['spans']} "
            f"full={results['full-trace']['spans']} spans"
        )
    return results


def report(results) -> None:
    rows = [
        [
            name,
            result["events"],
            result["delivered"],
            result["spans"],
            result["cpu_s"],
            result["events_per_sec"],
            result["trace_us_per_invocation"],
            f"{result['overhead_pct']:+.1f}%",
        ]
        for name, result in results.items()
    ]
    emit(
        format_table(
            ["configuration", "sim events", "delivered", "spans", "cpu (s)",
             "events/sec", "trace us/invocation", "overhead"],
            rows,
            title=(
                "Observability overhead: kernel event rate "
                "({topology}, {clients} {style} clients x {requests} requests, "
                "seed {seed}, best of {repeats})".format(**WORKLOAD)
            ),
        )
    )


def budget_failures(results) -> list:
    """The tracing budgets: absolute, paired within one process, enforced in every mode."""
    return [
        f"{name} tracing costs {results[name]['trace_us_per_invocation']:.1f} us per "
        f"invocation over trace-off (budget {budget:.0f} us)"
        for name, budget in BUDGET_US.items()
        if results[name]["trace_us_per_invocation"] > budget
    ]


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, floors=FLOORS, predicates=[budget_failures]))
