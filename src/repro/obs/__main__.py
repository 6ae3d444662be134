"""Offline observability toolbox: ``python -m repro.obs <command>``.

Works on the artefacts the library and the bench CLI already write — no
live simulator needed (see docs/OBSERVABILITY.md):

- ``timeline TRACE.jsonl``      render span JSONL as an indented
  virtual-time timeline (``--trace ID`` restricts to one trace tree).
- ``top TRACE.jsonl``           aggregate spans by name: count, total,
  mean and max duration — the hot-span table.
- ``diff BEFORE.json AFTER.json``  subtract two metrics snapshots and
  print the window delta as the usual aligned table.
- ``flight REPORT.json``        re-render the causally-ordered flight
  recorder excerpt a failing scenario report carries.

Sharded runs tag their artefacts: invoke spans carry a ``shard`` attr
(``timeline --attr shard=s1``) and flight events belong to shard-named
groups (``flight --shard 1`` / ``--group kv#1``).

An artefact that is missing, unparsable or of the wrong shape prints one
``error: PATH: ...`` line and exits 2, as ``repro.scenario`` does for a bad
spec.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from repro.obs.exporters import (
    read_jsonl,
    render_metrics_table,
    render_timeline,
    spans_by_trace,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import diff_snapshots


def _parse_attr_filters(pairs: List[str]) -> List[tuple]:
    filters = []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--attr expects key=value, got {pair!r}")
        filters.append((key, value))
    return filters


def _load(path: str, read, ok, what: str):
    """``read(path)`` when it parses and ``ok`` accepts it; otherwise one
    ``error:`` line on stderr and exit status 2."""
    try:
        data = read(path)
    except (OSError, ValueError) as exc:  # json's decode errors are ValueErrors
        why = str(exc)
    else:
        if ok(data):
            return data
        why = f"not {what}"
    print(f"error: {path}: {why}", file=sys.stderr)
    raise SystemExit(2)


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def _spans(path: str) -> List[Dict[str, Any]]:
    return _load(
        path,
        read_jsonl,
        lambda records: all(
            isinstance(r, dict) and {"trace", "name", "start"} <= r.keys() for r in records
        ),
        "a span JSONL trace",
    )


def cmd_timeline(args) -> int:
    records = _spans(args.trace_file)
    if args.trace is not None:
        records = [r for r in records if str(r.get("trace")) == args.trace]
        if not records:
            print(f"no spans with trace id {args.trace!r}", file=sys.stderr)
            return 1
    for key, value in _parse_attr_filters(args.attr):
        # keep whole trace trees: a trace qualifies when any of its spans
        # carries the attribute (attrs live on the root invoke span, its
        # children would otherwise be orphaned)
        keep = {
            r.get("trace")
            for r in records
            if str((r.get("attrs") or {}).get(key)) == value
        }
        records = [r for r in records if r.get("trace") in keep]
        if not records:
            print(f"no spans with attr {key}={value}", file=sys.stderr)
            return 1
    if not records:
        print("no spans in trace file", file=sys.stderr)
        return 1
    # render per trace: span ids are only unique within one run, so a
    # merged multi-run file must never hit one build_trees() call whole
    for _, spans in sorted(spans_by_trace(records).items(), key=lambda kv: str(kv[0])):
        print(render_timeline(spans))
    return 0


def cmd_top(args) -> int:
    records = _spans(args.trace_file)
    if not records:
        print("no spans in trace file", file=sys.stderr)
        return 1
    stats: Dict[str, List[float]] = {}
    open_spans = 0
    for record in records:
        end = record.get("end")
        if end is None:
            open_spans += 1  # span never finished (cap or crash) — skip
            continue
        stats.setdefault(record["name"], []).append(end - record["start"])
    rows = sorted(
        (
            (name, len(durations), sum(durations), max(durations))
            for name, durations in stats.items()
        ),
        key=lambda row: row[2],
        reverse=True,
    )[: args.limit]
    width = max([len(name) for name, *_ in rows] + [10])
    print(
        f"{'span':<{width}}  {'count':>8} {'total_ms':>12} {'mean_ms':>10} {'max_ms':>10}"
    )
    for name, count, total, peak in rows:
        print(
            f"{name:<{width}}  {count:>8} {total * 1e3:>12.3f}"
            f" {total / count * 1e3:>10.3f} {peak * 1e3:>10.3f}"
        )
    if open_spans:
        print(f"({open_spans} unfinished spans skipped)")
    return 0


def _read_snapshot(path: str) -> Any:
    data = _read_json(path)
    # accept either a bare snapshot or a scenario report carrying one
    if isinstance(data, dict) and "counters" not in data:
        data = data.get("metrics")
    return data


def _load_snapshot(path: str) -> Dict[str, Any]:
    return _load(
        path,
        _read_snapshot,
        lambda data: isinstance(data, dict) and isinstance(data.get("counters"), dict),
        "a metrics snapshot or a scenario report",
    )


def cmd_diff(args) -> int:
    before = _load_snapshot(args.before)
    after = _load_snapshot(args.after)
    delta = diff_snapshots(before, after)
    print(render_metrics_table(delta))
    return 0


def _shard_of_flight_group(group: str) -> "int | None":
    """The shard number a flight event's group belongs to, if any.

    Shard groups are ``svc:{name}#{n}`` (server side) and
    ``cs:{client}:{name}#{n}:{epoch}`` (client-server side).
    """
    parts = group.split(":")
    if len(parts) == 2 and parts[0] == "svc":
        name = parts[1]
    elif len(parts) == 4 and parts[0] == "cs":
        name = parts[2]
    else:
        return None
    base, sep, suffix = name.rpartition("#")
    if not sep or not base or not suffix.isdigit():
        return None
    return int(suffix)


def cmd_flight(args) -> int:
    report = _load(
        args.report,
        _read_json,
        lambda data: isinstance(data, dict)
        or (isinstance(data, list) and all(isinstance(ev, dict) and "seq" in ev for ev in data)),
        "a scenario report or a flight-recorder excerpt",
    )
    if isinstance(report, list):  # a raw excerpt dumped on its own
        excerpt = report
    else:
        excerpt = report.get("flight_recorder")
    if not excerpt:
        print(
            "no flight_recorder section (the report passed, or predates it)",
            file=sys.stderr,
        )
        return 1
    total = len(excerpt)
    if args.group is not None:
        excerpt = [ev for ev in excerpt if args.group in ev.get("group", "")]
    if args.shard is not None:
        excerpt = [
            ev
            for ev in excerpt
            if _shard_of_flight_group(ev.get("group", "")) == args.shard
        ]
    if args.node is not None:
        excerpt = [ev for ev in excerpt if ev.get("node") == args.node]
    if not excerpt:
        print(f"no events match the filters ({total} recorded)", file=sys.stderr)
        return 1
    print(FlightRecorder.render_excerpt(excerpt))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect traces, metrics snapshots and flight recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("timeline", help="render a span JSONL file as a timeline")
    p.add_argument("trace_file", help="JSONL trace (from --trace or dump_trace)")
    p.add_argument("--trace", default=None, help="restrict to one trace id")
    p.add_argument(
        "--attr",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="keep only traces with a span carrying this attribute "
        "(repeatable; e.g. --attr shard=s1)",
    )
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser("top", help="hot spans by aggregate duration")
    p.add_argument("trace_file", help="JSONL trace (from --trace or dump_trace)")
    p.add_argument("--limit", type=int, default=20, help="rows to show (default 20)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("diff", help="window delta between two metrics snapshots")
    p.add_argument("before", help="earlier snapshot JSON (or scenario report)")
    p.add_argument("after", help="later snapshot JSON (or scenario report)")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("flight", help="render a report's flight recorder excerpt")
    p.add_argument("report", help="scenario report JSON with a flight_recorder section")
    p.add_argument("--group", default=None, help="keep events whose group contains this")
    p.add_argument(
        "--shard",
        type=int,
        default=None,
        help="keep events belonging to this shard's groups (svc#N / its cs groups)",
    )
    p.add_argument("--node", default=None, help="keep one node's events")
    p.set_defaults(fn=cmd_flight)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head/less that quit early
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
