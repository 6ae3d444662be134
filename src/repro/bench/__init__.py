"""Benchmark harness reproducing the paper's Section 5 evaluation."""

from repro.bench.env import Environment, REQUEST_REPLY_CONFIGS
from repro.bench.harness import (
    ExperimentPoint,
    client_counts,
    corba_baseline,
    full_run,
    peer_point,
    peer_series,
    request_reply_point,
    request_reply_series,
)
from repro.bench.report import format_graph, format_table, print_graph, print_table
from repro.bench.stats import LatencySample, Point, Series, summarize
from repro.bench.workloads import (
    ClosedLoopClient,
    PeerMember,
    PeerTracker,
    run_until_done,
)

__all__ = [
    "Environment",
    "REQUEST_REPLY_CONFIGS",
    "ExperimentPoint",
    "corba_baseline",
    "request_reply_point",
    "request_reply_series",
    "peer_point",
    "peer_series",
    "client_counts",
    "full_run",
    "LatencySample",
    "Point",
    "Series",
    "summarize",
    "ClosedLoopClient",
    "PeerMember",
    "PeerTracker",
    "run_until_done",
    "format_table",
    "format_graph",
    "print_table",
    "print_graph",
]
