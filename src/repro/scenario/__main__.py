"""Scenario CLI: ``python -m repro.scenario run <spec.json> [...]``.

Commands:

- ``run SPEC [SPEC ...]`` — execute scenarios and print their JSON
  reports.  Exit status: 0 when every scenario's SLOs pass, 1 when any
  SLO fails (or a run loses in-flight requests), 2 on spec/setup errors.
- ``validate SPEC [SPEC ...]`` — parse and validate specs without running.

``--output PATH`` writes the report(s) to a file (a single report object,
or a JSON array when several specs are given); ``--quiet`` suppresses the
report on stdout and prints one PASS/FAIL line per scenario instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

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

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
