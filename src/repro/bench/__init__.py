"""Benchmark harness reproducing the paper's Section 5 evaluation."""

from repro.bench.env import Environment, REQUEST_REPLY_CONFIGS
from repro.bench.harness import (
    CLIENT_COUNTS,
    PEER_MEMBERS,
    ExperimentPoint,
    corba_baseline,
    peer_point,
    request_reply_point,
    request_reply_traffic,
    sweep,
)
from repro.bench.report import emit, format_graph, format_table
from repro.bench.stats import LatencySample, Point, Series, pinned, summarize
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
    "request_reply_traffic",
    "peer_point",
    "sweep",
    "CLIENT_COUNTS",
    "PEER_MEMBERS",
    "LatencySample",
    "Point",
    "Series",
    "summarize",
    "pinned",
    "ClosedLoopClient",
    "PeerMember",
    "PeerTracker",
    "run_until_done",
    "emit",
    "format_table",
    "format_graph",
]
