"""Scenario execution: spec in, machine-readable report out.

The runner builds the simulated deployment described by a
:class:`~repro.scenario.spec.ScenarioSpec`, lets the groups form, installs
the fault schedule, drives open-loop traffic, waits for the in-flight
tail, evaluates the SLOs, and returns a JSON-serialisable report.

Everything in the report is derived from the deterministic simulation, so
two runs of the same spec are byte-identical — except for the single
``wall_time_s`` field, which records real execution time.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable, Dict

from repro.bench.env import DeploymentError, Environment
from repro.bench.stats import summarize
from repro.bench.workloads import run_until_done
from repro.apps.chat import make_peer_config
from repro.apps.mapreduce import MapReduceServant
from repro.apps.randserver import RandomNumberServant
from repro.apps.sharded_kvstore import ShardKVServant, ShardedKVClient
from repro.core.client import PHASE_NAMES
from repro.core.modes import BindingStyle, InvocationScheme
from repro.groupcomm.config import GroupConfig
from repro.overload import AdmissionConfig
from repro.recovery import RecoveryManager, convergence_status
from repro.shard import sharded_convergence_status
from repro.scenario.arrivals import arrival_process_from_spec
from repro.scenario.faults import FaultSchedule
from repro.scenario.slo import SloContext, build_slos, evaluate_slos
from repro.scenario.spec import ScenarioSpec, load_spec
from repro.scenario.traffic import OpenLoopGenerator, Population
from repro.sim import Future, with_timeout
from repro.sim.process import all_of

__all__ = ["run_scenario", "ScenarioError", "REPORT_VERSION"]

REPORT_VERSION = 2

SERVICE_NAME = "svc"

#: extra virtual time after the drain for request_reply runs: lets in-flight
#: server-side tails (reply multicasts, state transfers, the recovery
#: manager's convergence watch) settle before the final convergence check
CONVERGENCE_GRACE = 2.0


#: raised when a scenario cannot be set up (not an SLO failure)
ScenarioError = DeploymentError


def _manager_admission(admission):
    """The request managers' share of the admission policy: pushback only.

    ``max_inflight`` is a *per-binding* bound, enforced at every client
    binding where a shed costs no wire traffic at all; a manager serves
    every binding at once, so applying the same bound there would both
    throttle the group below capacity and pay a ShedReply multicast per
    refusal.  Managers keep the group-knowledge signal — advertised
    pushback — as the backstop behind the bindings.
    """
    return None if admission is None else AdmissionConfig(max_inflight=0)


def run_scenario(source, obs=None) -> Dict:
    """Run one scenario and return its report dict.

    ``source`` is a :class:`ScenarioSpec`, a spec dict, or a path to a
    JSON spec file.  ``obs`` optionally injects an explicit
    :class:`repro.obs.Observability` (e.g. with tracing enabled).
    """
    spec = load_spec(source)
    started_wall = time.monotonic()
    env = Environment(config=spec.topology, seed=spec.seed, obs=obs)
    sim = env.sim

    if spec.traffic.workload == "peer":
        issuers, resolve_target = _setup_peer(env, spec)
        recovery = None  # peer groups have no server-side state to restore
    elif spec.traffic.workload == "sharded_kvstore":
        issuers, resolve_target = _setup_sharded(env, spec)
        recovery = RecoveryManager(sim, env.net, env.services, SERVICE_NAME)
    elif spec.traffic.workload == "map_reduce":
        issuers, resolve_target = _setup_map_reduce(env, spec)
        recovery = RecoveryManager(sim, env.net, env.services, SERVICE_NAME)
    else:
        issuers, resolve_target = _setup_request_reply(env, spec)
        recovery = RecoveryManager(sim, env.net, env.services, SERVICE_NAME)

    schedule = FaultSchedule(spec.faults)
    schedule.install(sim, env.net, resolve_target, recovery=recovery)

    process = arrival_process_from_spec(spec.traffic.arrivals)
    churn = spec.traffic.churn
    population = Population(
        initial=churn.initial,
        steps=churn.steps,
        join_rate=churn.join_rate,
        leave_rate=churn.leave_rate,
        min_clients=churn.min_clients,
        max_clients=churn.max_clients,
        rng=sim.rng("scenario.churn"),
    )
    generator = OpenLoopGenerator(
        sim,
        issuers,
        process,
        population,
        duration=spec.traffic.duration,
        max_in_flight=spec.traffic.max_in_flight,
    ).start()

    traffic_start = sim.now
    deadline = traffic_start + spec.traffic.duration + spec.traffic.drain
    drained = True
    try:
        run_until_done(sim, [generator.finished], deadline=deadline)
    except RuntimeError:
        drained = False  # lost in-flight requests: the accounting SLO fails

    convergence = None
    if recovery is not None:
        sim.run(until=sim.now + CONVERGENCE_GRACE)
        if spec.traffic.workload == "sharded_kvstore":
            convergence = sharded_convergence_status(
                env.services, SERVICE_NAME, env.net
            )
        else:
            convergence = convergence_status(env.services, SERVICE_NAME, env.net)
        sim.obs.metrics.counter("scenario.convergence.checks").inc()
        if not convergence["converged"]:
            sim.obs.metrics.counter("scenario.convergence.failures").inc()

    snapshot = sim.obs.metrics_snapshot()
    ctx = SloContext(
        sim.obs.metrics, generator.stats, snapshot,
        duration=spec.traffic.duration,
    )
    verdicts = evaluate_slos(build_slos(spec.slos), ctx)
    passed = all(verdict["ok"] for verdict in verdicts)

    latencies = sorted(latency for _at, latency in generator.stats.samples)
    latency_summary = {
        key: (value * 1e3 if key != "count" else value)
        for key, value in summarize(latencies).items()
    }

    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    breakdown = None
    e2e = histograms.get("client.invoke_latency")
    if e2e and e2e["count"]:
        phase_means = {
            name: histograms.get(f"inv.phase.{name}", {"mean": 0.0})["mean"]
            for name in PHASE_NAMES
        }
        # fsum: the report is the same under every interpreter (plain sum()
        # is compensated from CPython 3.12 on, so it differs by an ulp)
        phase_sum = math.fsum(phase_means.values())
        breakdown = {
            "phases_ms": {n: m * 1e3 for n, m in phase_means.items()},
            "end_to_end_mean_ms": e2e["mean"] * 1e3,
            "sum_of_phase_means_ms": phase_sum * 1e3,
            "reconciliation_pct": (
                abs(phase_sum - e2e["mean"]) / e2e["mean"] * 100.0
                if e2e["mean"] > 0
                else 0.0
            ),
        }
    report = {
        "report_version": REPORT_VERSION,
        "scenario": spec.name,
        "description": spec.description,
        "seed": spec.seed,
        "topology": spec.topology,
        "workload": spec.traffic.workload,
        "sim": {
            "virtual_end": sim.now,
            "traffic_start": traffic_start,
            "events_processed": sim.events_processed,
            "drained": drained,
        },
        "traffic": {
            **generator.stats.snapshot(),
            "latency_ms": latency_summary,
            "population": population.describe(),
        },
        "faults": schedule.log,
        "recovery": convergence,
        "slos": verdicts,
        "latency_breakdown": breakdown,
        "metrics": {
            "counters": {
                name: value
                for name, value in counters.items()
                if name.split(".", 1)[0]
                in (
                    "gc", "net", "client", "server", "scenario", "recovery",
                    "obs", "shard", "gmi", "overload",
                )
            },
            "histograms": {
                name: histograms[name]
                for name in (
                    "scenario.latency",
                    "node.cpu_queue_delay",
                    "recovery.time",
                    "client.invoke_latency",
                    *(f"inv.phase.{n}" for n in PHASE_NAMES),
                    *sorted(n for n in histograms if n.startswith("shard.")),
                    *sorted(n for n in histograms if n.startswith("gmi.")),
                )
                if name in histograms
            },
        },
        "passed": passed,
        "wall_time_s": round(time.monotonic() - started_wall, 3),
    }
    failed = (
        not passed
        or not drained
        or (convergence is not None and not convergence["converged"])
    )
    if failed:
        # post-mortem: the merged, causally-ordered tail of every node's
        # protocol flight ring rides along with the failing report
        report["flight_recorder"] = sim.obs.flight.excerpt(last=80)
    return report


# ---------------------------------------------------------------------------
# deployment wiring
# ---------------------------------------------------------------------------
def _served_config(spec: ScenarioSpec) -> GroupConfig:
    """The served group's config, its sequencer pinned to the first replica."""
    return spec.group.build_group_config().replace(sequencer_hint="s0")


def _setup_request_reply(env: Environment, spec: ScenarioSpec):
    """Replicated service + client attachment bindings; returns issuers."""
    group = spec.group
    traffic = spec.traffic
    admission = group.build_admission_config()
    open_style = group.style == BindingStyle.OPEN
    env.serve_replicas(
        SERVICE_NAME,
        RandomNumberServant,
        group.replicas,
        policy=group.policy,
        config=_served_config(spec),
        async_forwarding=group.async_forwarding,
        # open bindings route through a request manager: it backstops the
        # bindings with the group-knowledge signal (pushback)
        admission=_manager_admission(admission) if open_style else None,
    )
    bind_options = group.bind_options()
    scheme = traffic.build_scheme_config()

    def bind(service):
        # the binding is the true ingress: shedding here keeps refused work
        # out of the send queues entirely (for open bindings the manager's
        # admission is the group-knowledge backstop behind it)
        return service.bind(SERVICE_NAME, scheme=scheme, admission=admission, **bind_options)

    bindings = env.bind_clients(traffic.bindings, bind, settle=max(spec.settle, 0.5))

    # a scheme-bearing binding picks its own mode from the reply scheme;
    # the personalized scheme needs a scatter plan (every member gets the
    # same empty argument tuple here — the plan is what is under test)
    personalized = (
        scheme is not None
        and scheme.invocation == InvocationScheme.PERSONALIZED
    )

    def issuer_for(binding) -> Callable[[], Future]:
        def issue() -> Future:
            if scheme is not None:
                parts = (lambda _member: ()) if personalized else None
                return binding.invoke(
                    traffic.operation, (), timeout=traffic.timeout, parts=parts
                )
            return binding.invoke(
                traffic.operation, (), mode=traffic.mode, timeout=traffic.timeout
            )

        return issue

    issuers = [issuer_for(binding) for binding in bindings]

    def resolve_target(name: str) -> str:
        if name == "manager":
            manager = bindings[0].manager
            return manager if manager else "s0"
        return name

    return issuers, resolve_target


def _setup_sharded(env: Environment, spec: ScenarioSpec):
    """A sharded kvstore: key-routed puts/gets plus scatter mget batches.

    ``traffic.operation`` selects the single-key mix: ``"put"`` (all
    writes), ``"get"`` (all reads), anything else = 50/50.  The
    ``traffic.keys`` sampler decides per arrival whether the request is a
    multi-key batch (an ``mget`` scatter over only the addressed shards).
    """
    sim = env.sim
    group = spec.group
    traffic = spec.traffic
    admission = group.build_admission_config()
    open_style = group.style == BindingStyle.OPEN
    env.serve_replicas(
        SERVICE_NAME,
        ShardKVServant,
        group.replicas,
        shards=group.shards,
        settle=max(spec.settle, 1.0),
        min_members_per_shard=group.min_members_per_shard,
        policy=group.policy,
        config=_served_config(spec),
        async_forwarding=group.async_forwarding,
        admission=_manager_admission(admission) if open_style else None,
    )
    bind_options = group.bind_options()

    def bind(service):
        binding = service.bind_sharded(
            SERVICE_NAME, group.shards, admission=admission, **bind_options
        )
        return ShardedKVClient(binding, mode=traffic.mode, timeout=traffic.timeout)

    kv_clients = env.bind_clients(traffic.bindings, bind, settle=max(spec.settle, 0.5))

    sampler = traffic.build_key_sampler(rng=sim.rng("scenario.keys"))
    operation = traffic.operation
    mix_rng = sim.rng("scenario.sharded_ops")
    values = itertools.count()

    def issuer_for(client: ShardedKVClient) -> Callable[[], Future]:
        def issue() -> Future:
            if sampler.is_multi():
                return client.mget(sampler.batch())
            key = sampler.key()
            if operation == "put" or (
                operation != "get" and mix_rng.random() < 0.5
            ):
                return client.put(key, next(values))
            return client.get(key)

        return issue

    issuers = [issuer_for(client) for client in kv_clients]

    def resolve_target(name: str) -> str:
        if name == "manager":  # shard 0's sequencer
            manager = kv_clients[0].binding.binding(0).manager
            return manager if manager else "s0"
        return name

    return issuers, resolve_target


def _setup_map_reduce(env: Environment, spec: ScenarioSpec):
    """A combined-invocation cohort over an aggregation service.

    Every virtual arrival is one *logical* combined call: each cohort
    member contributes one value through its
    :class:`~repro.core.combined.CombinedBinding` (flat or tree fan-in per
    ``traffic.scheme``), ``traffic.reducer`` folds the contributions
    in-network, and the root issues the single group invocation.  The
    arrival completes when every cohort member's future resolves.
    """
    group = spec.group
    traffic = spec.traffic
    env.serve_replicas(
        SERVICE_NAME,
        MapReduceServant,
        group.replicas,
        policy=group.policy,
        config=_served_config(spec),
        async_forwarding=group.async_forwarding,
    )
    # the cohort is the client nodes bind_clients is about to add
    scheme = traffic.build_scheme_config([f"c{i}" for i in range(traffic.callers)])
    bind_options = group.bind_options()

    def bind(service):
        return service.bind(SERVICE_NAME, scheme=scheme, **bind_options)

    bindings = env.bind_clients(traffic.callers, bind, settle=max(spec.settle, 0.5))

    values = itertools.count(1)

    def issue() -> Future:
        value = next(values)
        contributions = [
            binding.invoke(
                traffic.operation, (value + binding.rank,),
                timeout=traffic.timeout,
            )
            for binding in bindings
        ]
        return all_of(contributions).then(lambda values: values[0])

    root = bindings[0]

    def resolve_target(name: str) -> str:
        if name == "manager":  # the root's underlying binding's sequencer
            manager = root._binding.manager if root._binding else None
            return manager if manager else "s0"
        return name

    return [issue], resolve_target


def _setup_peer(env: Environment, spec: ScenarioSpec):
    """A lively peer group; each arrival is one multicast, completion is
    group-wide delivery (tracked like the §5.2 experiments)."""
    sim = env.sim
    traffic = spec.traffic
    config = make_peer_config(
        ordering=spec.group.ordering,
        silence_period=spec.group.silence_period,
        suspicion_timeout=max(spec.group.suspicion_timeout, 100e-3),
        liveliness_config=spec.group.build_liveliness_config(),
        ordering_config=spec.group.build_ordering_config(),
    )
    sessions, tracker = env.form_peer_group(
        max(2, spec.group.replicas), config, settle=max(spec.settle, 1.0)
    )

    def issuer_for(session) -> Callable[[], Future]:
        multicast = tracker.multicaster(session, traffic.payload_chars)
        numbers = itertools.count(1)
        return lambda: with_timeout(sim, multicast(next(numbers)), traffic.timeout)

    issuers = [issuer_for(session) for session in sessions]

    def resolve_target(name: str) -> str:
        if name == "manager":  # the peer group's sequencer-equivalent
            return sessions[0].member_id
        return name

    return issuers, resolve_target
