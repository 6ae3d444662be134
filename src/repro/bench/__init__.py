"""Benchmark harness reproducing the paper's Section 5 evaluation."""

from repro.bench.env import DeploymentError, Environment, REQUEST_REPLY_CONFIGS
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
from repro.bench.stats import LatencySample, pinned, summarize
from repro.bench.workloads import ClosedLoopClient, PeerTracker, run_until_done

__all__ = [
    "DeploymentError",
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
    "summarize",
    "pinned",
    "ClosedLoopClient",
    "PeerTracker",
    "run_until_done",
    "emit",
    "format_table",
    "format_graph",
]
