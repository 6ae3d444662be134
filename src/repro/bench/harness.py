"""Experiment runners for every table and figure of Section 5.

Each function builds a fresh simulated deployment, runs the paper's
workload, and returns latency/throughput measurements.  The benchmark files
under ``benchmarks/`` call these and print paper-style tables; EXPERIMENTS.md
records the comparison against the published shapes.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.apps.chat import make_peer_config
from repro.apps.randserver import RandomNumberServant
from repro.bench.env import Environment
from repro.bench.stats import LatencySample, Point, Series
from repro.bench.workloads import (
    ClosedLoopClient,
    PeerMember,
    PeerTracker,
    run_until_done,
)
from repro.core import BindingStyle, Mode, ReplicationPolicy
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.net import Network, Topology
from repro.orb import ORB
from repro.sim import Simulator, spawn

__all__ = [
    "full_run",
    "client_counts",
    "corba_baseline",
    "request_reply_point",
    "request_reply_series",
    "peer_point",
    "peer_series",
    "ExperimentPoint",
]


def full_run() -> bool:
    """Whether to run the paper's full parameters (REPRO_BENCH_FULL=1)."""
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false")


def client_counts() -> List[int]:
    """The client-count sweep (1..20 in the paper; condensed by default)."""
    if full_run():
        return list(range(1, 21))
    return [1, 2, 4, 8, 12, 16, 20]


def _requests_per_client() -> int:
    return 100 if full_run() else 40


class ExperimentPoint:
    """One measured configuration."""

    def __init__(self, latency_ms: float, throughput: float, detail: Optional[Dict] = None):
        self.latency_ms = latency_ms
        self.throughput = throughput
        self.detail = detail or {}

    def __repr__(self) -> str:
        return f"ExperimentPoint({self.latency_ms:.2f}ms, {self.throughput:.0f}/s)"


# ---------------------------------------------------------------------------
# Table 1: plain CORBA (no group service)
# ---------------------------------------------------------------------------
def corba_baseline(
    client_site: str,
    server_site: str,
    requests: int = 200,
    seed: int = 7,
    obs=None,
) -> ExperimentPoint:
    """A single client invoking a single plain-CORBA server.

    ``obs`` (an :class:`repro.obs.Observability`) overrides the process-wide
    observability defaults for this run; leave None to follow the CLI's
    ``--trace``/``--metrics`` configuration.
    """
    if client_site == server_site:
        topology = Topology.single_lan(client_site)
    else:
        topology = Topology.paper_wan()
    sim = Simulator(seed=seed, obs=obs)
    net = Network(sim, topology)
    server_orb = ORB(net.new_node("server", server_site))
    client_orb = ORB(net.new_node("client", client_site))
    target = server_orb.register(RandomNumberServant())
    sample = LatencySample()

    def client():
        for i in range(requests + 10):
            start = sim.now
            yield client_orb.invoke(target, "draw", (), timeout=5.0)
            if i >= 10:
                sample.add(sim.now - start)

    proc = spawn(sim, client())
    run_until_done(sim, [proc], deadline=sim.now + 120.0)
    elapsed = sum(sample.values)
    throughput = len(sample.values) / elapsed if elapsed else 0.0
    return ExperimentPoint(sample.mean_ms, throughput)


# ---------------------------------------------------------------------------
# request-reply experiments (graphs 1-16)
# ---------------------------------------------------------------------------
def request_reply_point(
    config: str,
    n_clients: int,
    replicas: int = 3,
    style: str = BindingStyle.OPEN,
    ordering: str = Ordering.ASYMMETRIC,
    mode: str = Mode.ALL,
    restricted: bool = True,
    async_forwarding: bool = False,
    policy: str = ReplicationPolicy.ACTIVE,
    requests: Optional[int] = None,
    seed: int = 42,
    obs=None,
) -> ExperimentPoint:
    """One (configuration, client-count) measurement.

    Builds ``replicas`` servers of the random-number service in the given
    network ``config``, attaches ``n_clients`` closed-loop clients with the
    requested binding style/ordering/mode, and measures mean request latency
    and aggregate served throughput.  ``obs`` injects an explicit
    :class:`repro.obs.Observability` (default: process-wide configuration).
    """
    requests = requests or _requests_per_client()
    env = Environment(config=config, seed=seed, obs=obs)
    # WAN queueing under load can exceed the library's default suspicion
    # timeout; benchmark deployments use wide-area-appropriate settings so
    # measurements reflect steady state rather than false-suspicion churn
    group_options = dict(
        ordering=ordering,
        liveliness=Liveliness.EVENT_DRIVEN,
        suspicion_timeout=10.0,
        flush_timeout=5.0,
    )
    env.serve_replicas(
        "rand",
        RandomNumberServant,
        replicas,
        policy=policy,
        config=GroupConfig(sequencer_hint="s0", **group_options),
        async_forwarding=async_forwarding,
    )
    clients = env.add_clients(n_clients)
    bindings = []
    for service in clients:
        bindings.append(
            # the client/server groups run the served group's parameters
            service.bind("rand", style=style, restricted=restricted, **group_options)
        )
        env.run(0.05)
    env.settle(1.5)
    for binding in bindings:
        if not binding.ready.done:
            raise RuntimeError(f"binding failed to become ready: {binding!r}")

    workers = [
        ClosedLoopClient(
            env.sim, binding, operation="draw", mode=mode, requests=requests
        )
        for binding in bindings
    ]
    run_until_done(env.sim, [w.done for w in workers], deadline=env.sim.now + 600.0)

    all_latencies = LatencySample()
    for worker in workers:
        all_latencies.extend(worker.latencies)
    completed = [w for w in workers if w.first_timed_start is not None and w.last_completion is not None]
    throughput = 0.0
    total = sum(len(w.latencies.values) for w in workers)
    if completed:
        window_start = min(w.first_timed_start for w in completed)
        window_end = max(w.last_completion for w in completed)
        if window_end > window_start:
            throughput = total / (window_end - window_start)
    errors = sum(w.errors for w in workers)
    return ExperimentPoint(
        all_latencies.mean_ms,
        throughput,
        {"errors": errors, "requests": total, "summary": all_latencies.summary_ms()},
    )


def request_reply_series(
    label: str,
    config: str,
    counts: Optional[List[int]] = None,
    **kwargs,
) -> Series:
    """Sweep client counts for one configuration (one curve of a graph)."""
    series = Series(label)
    for count in counts or client_counts():
        point = request_reply_point(config, count, **kwargs)
        series.add(Point(count, point.latency_ms, point.throughput, point.detail))
    return series


# ---------------------------------------------------------------------------
# peer participation experiments (graphs 17-18)
# ---------------------------------------------------------------------------
def peer_point(
    config: str,
    n_members: int,
    ordering: str,
    multicasts: Optional[int] = None,
    seed: int = 42,
    obs=None,
    **group_config,
) -> ExperimentPoint:
    """One peer-participation measurement: a lively group of ``n_members``
    all multicasting 100-character strings as fast as group-wide delivery
    allows; reports mean multicast-to-everywhere latency and aggregate
    message throughput (the paper's msgs/sec metric).  Extra keywords are
    ``GroupConfig`` fields on top of the peer preset (e.g. an
    ``ordering_config`` that tunes ticket batching / ack piggybacking)."""
    multicasts = multicasts or (100 if full_run() else 30)
    env = Environment(config=config, seed=seed, obs=obs)
    services = env.add_peers(n_members)
    peer_config = make_peer_config(ordering=ordering, **group_config)
    sessions = [services[0].create_peer_group("conf", peer_config)]
    for service in services[1:]:
        sessions.append(service.join_peer_group("conf", services[0].name))
        env.run(0.2)
    env.settle(1.0)
    names = [s.member_id for s in sessions]
    tracker = PeerTracker(names)
    for session in sessions:
        PeerMember.wire_delivery(session, tracker)
    members = [
        PeerMember(env.sim, session, tracker, multicasts=multicasts)
        for session in sessions
    ]
    run_until_done(env.sim, [m.done for m in members], deadline=env.sim.now + 600.0)

    latencies = LatencySample()
    throughput = 0.0
    for member in members:
        latencies.extend(member.latencies)
        if member.elapsed > 0:
            throughput += len(member.latencies.values) / member.elapsed
    return ExperimentPoint(latencies.mean_ms, throughput)


def peer_series(
    label: str,
    config: str,
    ordering: str,
    member_counts: Optional[List[int]] = None,
    **kwargs,
) -> Series:
    counts = member_counts or ([2, 3, 4, 5, 6, 8, 10] if full_run() else [2, 3, 4, 6, 8])
    series = Series(label)
    for count in counts:
        point = peer_point(config, count, ordering, **kwargs)
        series.add(Point(count, point.latency_ms, point.throughput))
    return series
