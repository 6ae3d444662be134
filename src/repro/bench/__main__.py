"""Command-line experiment runner: ``python -m repro.bench <experiment>``.

Runs any ``benchmarks/bench_<experiment>.py`` — its ``measure()``, then its
``report()`` — and prints the paper-style tables.  It never reads or writes
``benchmarks/gates.json``: gating is the script's own ``--check``.
``python -m repro.bench --list`` enumerates the experiments.

Observability flags (see docs/OBSERVABILITY.md):

- ``--trace [PATH]`` records a causal span trace of every simulation the
  experiment runs — one connected tree per client invocation, stamped with
  virtual time — and writes it as JSONL (default ``trace.jsonl``).
- ``--trace-sample RATE`` head-samples traces at RATE in [0, 1] with the
  deterministic systematic sampler (implies ``--trace``).
- ``--metrics`` prints the merged metrics snapshot (counters, gauges,
  latency/queue histograms) and the per-kind traffic reconciliation.

A script that pins its own ``Observability`` (``kernel_speed`` and
``obs_overhead`` count calls with tracing as *they* set it) is out of
these flags' reach.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from typing import List

from repro.bench import gate
from repro.bench.profiling import DEFAULT_TOP, profiled
from repro.obs import TraceSink, configure, reconcile_traffic, render_metrics_table

#: where the experiments live, located as ``gates.json`` is
SCRIPTS = gate.GATES.parent


def experiments() -> List[str]:
    """Every experiment name: the stems of ``benchmarks/bench_*.py``."""
    return sorted(path.stem[len("bench_"):] for path in SCRIPTS.glob("bench_*.py"))


def load(name: str):
    """Import ``benchmarks/bench_<name>.py`` by path (it is not on ``sys.path``)."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", SCRIPTS / f"bench_{name}.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run one benchmarks/bench_*.py experiment and print its tables.",
    )
    parser.add_argument("experiment", nargs="?", choices=experiments())
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        nargs="?",
        const="trace.jsonl",
        default=None,
        help="record causal span traces and write them as JSONL to PATH "
        "(default trace.jsonl)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        metavar="RATE",
        default=None,
        help="head-sample traces at RATE in [0, 1] (implies tracing; e.g. "
        "0.01 records every 100th invocation)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the merged metrics snapshot and traffic reconciliation",
    )
    parser.add_argument(
        "--profile",
        type=int,
        metavar="N",
        nargs="?",
        const=DEFAULT_TOP,
        default=None,
        help="run the experiment under cProfile and print the top N entries "
        f"by cumulative time (default {DEFAULT_TOP})",
    )
    args = parser.parse_args(argv)
    if args.trace_sample is not None:
        if not 0.0 <= args.trace_sample <= 1.0:
            parser.error(f"--trace-sample must be in [0, 1], got {args.trace_sample}")
        if args.trace is None:
            args.trace = "trace.jsonl"

    if args.list or not args.experiment:
        print("experiments:")
        for name in experiments():
            print(f"  {name:34s} {load(name).__doc__.splitlines()[0]}")
        return 0

    if args.trace:
        # fail before the experiment runs, not after minutes of simulation
        try:
            with open(args.trace, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            parser.error(f"cannot write trace file {args.trace!r}: {exc}")

    sink = None
    if args.trace or args.metrics:
        # every Simulator the experiment builds registers with the sink, so
        # workload code needs no changes to be traced
        sink = TraceSink()
        configure(
            trace=args.trace is not None,
            sink=sink,
            sample_rate=args.trace_sample,
        )
    script = load(args.experiment)
    try:
        with profiled(args.profile, label=args.experiment):
            script.report(script.measure())
    finally:
        configure(trace=False, sink=None)
    if sink is not None:
        _report_observability(sink, args)
    return 0


def _report_observability(sink: TraceSink, args) -> None:
    if args.trace:
        written = sink.write_jsonl(args.trace)
        print(f"\ntrace: wrote {written} spans from {len(sink.runs)} runs to {args.trace}")
        dropped = sink.dropped_spans()
        if dropped:
            print(f"trace: WARNING {dropped} spans dropped (per-run cap)")
    if args.metrics:
        snapshot = sink.merged_metrics()
        print("\n=== metrics (merged across runs) ===")
        print(render_metrics_table(snapshot))
        reconciliation = reconcile_traffic(snapshot)
        if reconciliation:
            print("\ntraffic reconciliation (gc sends vs net hops):")
            for kind in sorted(reconciliation):
                sent, hops = reconciliation[kind]
                status = "ok" if sent == hops else f"MISMATCH ({sent - hops:+d})"
                print(f"  {kind:12s} gc={sent:<8d} net={hops:<8d} {status}")


if __name__ == "__main__":
    sys.exit(main())
