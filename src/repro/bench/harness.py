"""Experiment runners for every table and figure of Section 5.

Each function builds a fresh simulated deployment, runs the paper's
workload, and returns latency/throughput measurements.  The benchmark files
under ``benchmarks/`` call these and print paper-style tables; EXPERIMENTS.md
records the comparison against the published shapes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.apps.chat import make_peer_config
from repro.apps.randserver import RandomNumberServant
from repro.bench.env import Environment
from repro.bench.stats import LatencySample, pinned
from repro.bench.workloads import ClosedLoopClient, run_until_done
from repro.core import BindingStyle, Mode, ReplicationPolicy
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.net import Network, Topology
from repro.orb import ORB
from repro.sim import Simulator, spawn

__all__ = [
    "CLIENT_COUNTS",
    "PEER_MEMBERS",
    "corba_baseline",
    "request_reply_deployment",
    "request_reply_point",
    "request_reply_traffic",
    "peer_point",
    "sweep",
    "ExperimentPoint",
]


#: the client-count sweep of graphs 1-16 (1..20 in the paper, condensed)
CLIENT_COUNTS = (1, 2, 4, 8, 12, 16, 20)
#: the membership sweep of graphs 17-18
PEER_MEMBERS = (2, 3, 4, 6, 8)


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
) -> ExperimentPoint:
    """A single client invoking a single plain-CORBA server."""
    if client_site == server_site:
        topology = Topology.single_lan(client_site)
    else:
        topology = Topology.paper_wan()
    sim = Simulator(seed=seed)
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
def request_reply_deployment(
    config: str,
    n_clients: int,
    replicas: int = 3,
    style: str = BindingStyle.OPEN,
    ordering: str = Ordering.ASYMMETRIC,
    restricted: bool = True,
    async_forwarding: bool = False,
    policy: str = ReplicationPolicy.ACTIVE,
    seed: int = 42,
    obs=None,
    **group_config,
):
    """The §5.1 deployment, settled: ``(env, bindings)``.

    Builds ``replicas`` servers of the random-number service in the given
    network ``config`` and binds ``n_clients`` clients with the requested
    style/ordering.  Extra keywords are ``GroupConfig`` fields on top of the
    benchmark deployment's (e.g. ``liveliness``).  ``obs`` injects an explicit
    :class:`repro.obs.Observability` (default: process-wide configuration).
    """
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
    group_options.update(group_config)
    env.serve_replicas(
        "rand",
        RandomNumberServant,
        replicas,
        policy=policy,
        config=GroupConfig(sequencer_hint="s0", **group_options),
        async_forwarding=async_forwarding,
    )

    def bind(service):
        # the client/server groups run the served group's parameters
        return service.bind("rand", style=style, restricted=restricted, **group_options)

    return env, env.bind_clients(n_clients, bind, settle=1.5)


def request_reply_point(
    config: str,
    n_clients: int,
    mode: str = Mode.ALL,
    requests: int = 40,
    **deployment,
) -> ExperimentPoint:
    """One (configuration, client-count) measurement: ``n_clients`` closed-loop
    clients on a :func:`request_reply_deployment`; mean request latency and
    aggregate served throughput, with the run's error, request and channel
    retransmission counts as ``detail``."""
    env, bindings = request_reply_deployment(config, n_clients, **deployment)
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
    retransmissions = env.sim.obs.metrics.counter_value("gc.channel.retransmissions")
    return ExperimentPoint(
        all_latencies.mean_ms,
        throughput,
        {"errors": errors, "requests": total, "retransmissions": retransmissions},
    )


def request_reply_traffic(
    config: str, n_clients: int, requests: int, mode: str = Mode.ALL, **deployment
) -> Dict[str, int]:
    """Counter deltas (``gc.sent.<kind>``, ``gc.delivered``, ``net.sent``, ...)
    over a window of ``requests`` closed-loop requests per client on a
    :func:`request_reply_deployment`: only workload traffic is measured."""
    env, bindings = request_reply_deployment(config, n_clients, **deployment)
    before = env.sim.obs.metrics_snapshot()
    workers = [
        ClosedLoopClient(
            env.sim, binding, operation="draw", mode=mode, requests=requests, warmup=0
        )
        for binding in bindings
    ]
    run_until_done(env.sim, [w.done for w in workers], deadline=env.sim.now + 120.0)
    env.run(1.0)  # let tail acks/nulls settle
    return env.sim.obs.metrics.diff(before)["counters"]


# ---------------------------------------------------------------------------
# peer participation experiments (graphs 17-18)
# ---------------------------------------------------------------------------
def peer_point(
    config: str,
    n_members: int,
    ordering: str,
    multicasts: int = 30,
    seed: int = 42,
    obs=None,
    **group_config,
) -> ExperimentPoint:
    """One peer-participation measurement: a lively group of ``n_members``
    all multicasting 100-character strings as fast as group-wide delivery
    allows; reports mean multicast-to-everywhere latency and aggregate
    message throughput (the paper's msgs/sec metric), with the run's
    delivery, ticket and channel retransmission counts as ``detail``.
    Extra keywords are ``GroupConfig`` fields on top of the peer preset
    (e.g. an ``ordering_config`` that tunes ticket batching / ack
    piggybacking)."""
    env = Environment(config=config, seed=seed, obs=obs)
    sessions, tracker = env.form_peer_group(
        n_members, make_peer_config(ordering=ordering, **group_config), settle=1.0
    )
    members = [
        ClosedLoopClient(
            env.sim,
            issue=tracker.multicaster(session),
            requests=multicasts,
            warmup=3,
            window=8,
            name=f"peer:{session.member_id}",
        )
        for session in sessions
    ]
    run_until_done(env.sim, [m.done for m in members], deadline=env.sim.now + 600.0)

    latencies = LatencySample()
    throughput = 0.0
    for member in members:
        latencies.extend(member.latencies)
        elapsed = member.last_completion - member.first_timed_start
        throughput += len(member.latencies.values) / elapsed
    count = env.sim.obs.metrics.counter_value
    return ExperimentPoint(
        latencies.mean_ms,
        throughput,
        {
            "delivered": count("gc.delivered"),
            "tickets": count("gc.sent.ticket"),
            "tickets_batched": count("gc.tickets_batched"),
            "retransmissions": count("gc.channel.retransmissions"),
        },
    )


# ---------------------------------------------------------------------------
# one curve of a graph
# ---------------------------------------------------------------------------
def sweep(point, config: str, xs: Sequence[int], **kwargs) -> Dict[int, Dict]:
    """``point(config, x, **kwargs)`` for each x (:data:`CLIENT_COUNTS` for
    :func:`request_reply_point`, :data:`PEER_MEMBERS` for :func:`peer_point`):
    x -> the point's :func:`~repro.bench.stats.pinned` values and its counts."""
    curve = {}
    for x in xs:
        measured = point(config, x, **kwargs)
        curve[x] = {**pinned(measured), **measured.detail}
    return curve
