"""Scenario CLI: ``python -m repro.scenario run <spec.json> [...]``.

Commands:

- ``run SPEC [SPEC ...]`` — execute scenarios and print their JSON
  reports.  Exit status: 0 when every scenario's SLOs pass, 1 when any
  SLO fails (or a run loses in-flight requests), 2 on spec/setup errors.
- ``validate SPEC [SPEC ...]`` — parse and validate specs without running.
- ``gate SPEC [SPEC ...] [--check]`` — run scenarios and gate each report
  against section ``scenario.<file stem>`` of ``benchmarks/gates.json``, as
  every ``benchmarks/bench_*.py`` is gated (:mod:`repro.bench.gate`): without
  ``--check`` the sections are rewritten.  Exit status: 0 when every report
  matches the store (an *expected* SLO failure does), 1 if not, 2 on errors.

``--output PATH`` writes the report(s) to a file (a single report object,
or a JSON array when several specs are given); ``--quiet`` suppresses the
report on stdout and prints one PASS/FAIL line per scenario instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import List

from repro.bench import gate
from repro.bench.profiling import DEFAULT_TOP, profiled
from repro.scenario.runner import ScenarioError, run_scenario
from repro.scenario.spec import load_spec


def _dump(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _run(args) -> int:
    reports: List[dict] = []
    failed = False
    for path in args.specs:
        try:
            with profiled(args.profile, label=path):
                report = run_scenario(path)
        except (ScenarioError, ValueError, OSError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
        # report["passed"] is the SLO conjunction only; a run that hit its
        # drain deadline with requests still in flight fails whatever it says
        drained = report["sim"]["drained"]
        ok = report["passed"] and drained
        if args.quiet:
            slos = report["slos"]
            bad = [s["name"] for s in slos if not s["ok"]]
            if not drained:
                bad.append(f"{report['traffic']['lost']} requests lost in flight")
            suffix = f" (failed: {', '.join(bad)})" if bad else ""
            verdict = "PASS" if ok else "FAIL"
            print(f"{verdict} {report['scenario']}: {len(slos)} SLOs{suffix}")
        else:
            print(_dump(report))
        if not ok:
            failed = True
    if args.output:
        payload = reports[0] if len(reports) == 1 else reports
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(_dump(payload) + "\n")
    return 1 if failed else 0


def _validate(args) -> int:
    status = 0
    for path in args.specs:
        try:
            spec = load_spec(path)
        except (ValueError, OSError) as exc:
            print(f"invalid: {path}: {exc}", file=sys.stderr)
            status = 2
            continue
        print(
            f"ok: {spec.name} ({spec.topology}, {spec.traffic.workload}, "
            f"{len(spec.faults)} faults, {len(spec.slos)} SLOs)"
        )
    return status


def spec_sha256(spec) -> str:
    """Digest of the canonical spec: another spec is another experiment."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def gated(report) -> dict:
    """A report's ``exact`` values: verdicts and integers as they are, virtual
    times to 3 dp as ``stats.pinned`` rounds.  No digest of the whole report:
    its means differ in the last ulp between CPython 3.11 and 3.12 (``sum()``
    is compensated from 3.12), and a key path says what moved."""
    traffic, recovery = report["traffic"], report["recovery"]
    return {
        "passed": report["passed"],
        "drained": report["sim"]["drained"],
        "slos": {slo["name"]: slo["ok"] for slo in report["slos"]},
        "converged": recovery["converged"] if recovery else None,
        "flight_events": len(report.get("flight_recorder", ())),
        "traffic": {k: v for k, v in traffic.items() if isinstance(v, int)},
        "events_processed": report["sim"]["events_processed"],
        "counters": report["metrics"]["counters"],
        "virtual_end": round(report["sim"]["virtual_end"], 3),
        "latency_ms": {k: round(v, 3) for k, v in traffic["latency_ms"].items()},
    }


def gate_specs(specs: List[str], check: bool, path: Path = gate.GATES) -> int:
    status = 0
    for spec_path in specs:
        try:
            spec = load_spec(spec_path)
            report = run_scenario(spec)
        except (ScenarioError, ValueError, OSError) as exc:
            print(f"error: {spec_path}: {exc}", file=sys.stderr)
            return 2
        exact = gated(report)
        status |= gate.run(
            f"scenario.{Path(spec_path).stem}", {"spec_sha256": spec_sha256(spec)},
            {**exact, "wall_time_s": report["wall_time_s"]},  # the one timed value
            exact=tuple(exact), check=check, path=path,
        )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario",
        description="Run declarative scenarios (open-loop traffic, fault "
        "schedules, SLO verdicts) against the simulated NewTop stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run scenario spec file(s)")
    run_parser.add_argument("specs", nargs="+", metavar="SPEC", help="JSON spec path")
    run_parser.add_argument("--output", "-o", metavar="PATH", help="write report JSON")
    run_parser.add_argument(
        "--quiet", "-q", action="store_true", help="one PASS/FAIL line per scenario"
    )
    run_parser.add_argument(
        "--profile",
        type=int,
        metavar="N",
        nargs="?",
        const=DEFAULT_TOP,
        default=None,
        help="run each scenario under cProfile and print the top N entries "
        f"by cumulative time (default {DEFAULT_TOP})",
    )
    run_parser.set_defaults(fn=_run)

    validate_parser = sub.add_parser("validate", help="validate spec file(s)")
    validate_parser.add_argument("specs", nargs="+", metavar="SPEC")
    validate_parser.set_defaults(fn=_validate)

    gate_parser = sub.add_parser("gate", help="gate report(s) against gates.json")
    gate_parser.add_argument("specs", nargs="+", metavar="SPEC")
    gate_parser.add_argument(
        "--check", action="store_true", help="CI mode: compare, rewrite no section"
    )
    gate_parser.set_defaults(fn=lambda args: gate_specs(args.specs, args.check))

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
