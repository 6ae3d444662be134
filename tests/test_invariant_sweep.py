"""Randomized invariant sweep: seed x ordering x batching x fault matrix.

Every cell replays a peer-group scenario under the protocol recorder and
asserts the four NewTop invariants (total order, gap-free FIFO, causal
precedence, virtual synchrony).  This is the acceptance gate for the
sequencer ticket-batching change: batching must alter traffic, never
semantics.

The tier-1 matrix keeps 2 seeds for speed; CI's ``sweeps`` job widens
it via ``REPRO_INVARIANT_SEEDS`` (comma-separated list) to 20.
A mutation smoke-check deliberately reorders batched tickets and asserts
the checker reports violations — proving the harness has teeth.
"""

import os

import pytest

from repro.groupcomm import GroupConfig, Liveliness, Ordering, OrderingConfig
from repro.groupcomm.ordering import AsymmetricOrder
from repro.net import JitteredLatency, Topology
from repro.scenario import run_scenario
from tests.conftest import Cluster
from tests.invariants import (
    check_combined_exactly_once,
    check_exactly_once,
    check_invariants,
    check_reducer_determinism,
    check_sharded_invariants,
    record_combined,
    record_executions,
    record_protocol,
    record_reductions,
)
from tests.test_groupcomm_basic import build_group

SEEDS = [int(s) for s in os.environ.get("REPRO_INVARIANT_SEEDS", "7,23").split(",")]
ORDERINGS = ["symmetric", "asymmetric"]
BATCHING = [False, True]
FAULTS = ["none", "crash-sequencer"]

#: scenario peer members are named p0.., and p0 (the group creator) is the
#: sequencer-equivalent the symbolic "manager" fault target resolves to
SEQUENCER = "p0"


def sweep_spec(seed: int, ordering: str, batch: bool, fault: str) -> dict:
    ordering_config = (
        {"ticket_batch_max": 6, "ticket_batch_delay": 2e-3} if batch else {}
    )
    faults = (
        [{"at": 0.8, "kind": "crash", "target": "manager"}]
        if fault == "crash-sequencer"
        else []
    )
    return {
        "name": f"invariant-{ordering}-s{seed}-b{int(batch)}-{fault}",
        "seed": seed,
        "topology": "lan",
        "settle": 1.0,
        "group": {
            "replicas": 4,
            "ordering": ordering,
            "liveliness": "lively",
            "silence_period": 30e-3,
            "suspicion_timeout": 150e-3,
            "flush_timeout": 150e-3,
            "ordering_config": ordering_config,
        },
        "traffic": {
            "workload": "peer",
            "arrivals": {"kind": "poisson", "rate": 4.0},
            "churn": {"initial": 3},
            "duration": 2.0,
            "drain": 4.0,
            "timeout": 3.0,
            "payload_chars": 40,
        },
        "faults": faults,
        "slos": [],
    }


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("batch", BATCHING)
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_invariant_sweep(seed, ordering, batch, fault):
    with record_protocol() as record:
        report = run_scenario(sweep_spec(seed, ordering, batch, fault))
    # the scenario must have actually multicast something
    assert report["metrics"]["counters"].get("gc.delivered", 0) > 0
    exclude = {SEQUENCER} if fault == "crash-sequencer" else set()
    violations = check_invariants(record, total_order=True, exclude=exclude)
    assert violations == []


def test_sweep_delivers_same_messages_batched_or_not():
    """Batching changes ticket traffic, not the delivered history: the
    surviving members' delivery orders are identical batch on/off."""
    histories = []
    for batch in (False, True):
        with record_protocol() as record:
            run_scenario(sweep_spec(11, "asymmetric", batch, "none"))
        histories.append(
            {m: record.deliveries("conf", m) for m in record.members_of("conf")}
        )
    assert histories[0] == histories[1]


# ---------------------------------------------------------------------------
# mutation smoke-check: the harness must catch a deliberately broken protocol
# ---------------------------------------------------------------------------
def test_checker_catches_reordered_ticket_batch(monkeypatch):
    """Deliberately deliver batched tickets in reverse order; the total-order
    (or FIFO) invariant must flag it — proving the checker has teeth."""
    original = AsymmetricOrder.on_tickets

    def sabotaged(self, tickets):
        original(self, list(reversed(tickets)))

    monkeypatch.setattr(AsymmetricOrder, "on_tickets", sabotaged)
    with record_protocol() as record:
        run_scenario(sweep_spec(7, "asymmetric", True, "none"))
    violations = check_invariants(record, total_order=True)
    assert violations, "reversed ticket batches must violate an invariant"


def test_checker_catches_conflicting_orders_directly():
    """Unit-level teeth check: hand-built logs with a transposition."""
    from tests.invariants import ProtocolRecord

    record = ProtocolRecord()
    a = (1, "n0", 1)
    b = (1, "n1", 1)
    for member, order in (("n0", [a, b]), ("n1", [b, a])):
        log = record.log("g", member)
        log.append(("view", 1, ("n0", "n1")))
        for view_id, sender, gseq in order:
            log.append(("deliver", view_id, sender, gseq))
    violations = check_invariants(record)
    assert any(v.startswith("total-order") for v in violations)


# ---------------------------------------------------------------------------
# crash-recovery sweep: restart / rejoin cells over the replicated service
# ---------------------------------------------------------------------------
#: replicas are named s0.. and s0 is the initial sequencer/manager hint;
#: restart targets are concrete node names (the symbolic "manager" would
#: resolve to the *new* manager by the time the restart fires)
RECOVERY_FAULTS = {
    "crash-restart": [
        {"at": 0.6, "kind": "crash", "target": "s1"},
        {"at": 1.4, "kind": "restart", "target": "s1"},
    ],
    "partition-heal-rejoin": [
        {"at": 0.6, "kind": "partition", "groups": [["s2"]]},
        {"at": 1.6, "kind": "heal", "rejoin": True},
    ],
    "manager-crash-restart": [
        {"at": 0.6, "kind": "crash", "target": "s0"},
        {"at": 1.4, "kind": "restart", "target": "s0"},
    ],
}


def recovery_spec(seed: int, fault: str) -> dict:
    return {
        "name": f"recovery-{fault}-s{seed}",
        "seed": seed,
        "topology": "lan",
        "settle": 1.0,
        "group": {
            "replicas": 3,
            "style": "open",
            "ordering": "asymmetric",
            "liveliness": "lively",
            "silence_period": 30e-3,
            "suspicion_timeout": 150e-3,
            "flush_timeout": 150e-3,
            "retry": {"max_attempts": 4, "base_delay": 0.1, "max_delay": 1.0},
        },
        "traffic": {
            "workload": "request_reply",
            "arrivals": {"kind": "poisson", "rate": 6.0},
            "churn": {"initial": 2},
            "duration": 2.0,
            "drain": 6.0,
            "timeout": 1.0,
            "bindings": 2,
        },
        "faults": RECOVERY_FAULTS[fault],
        "slos": [],
    }


@pytest.mark.parametrize("fault", sorted(RECOVERY_FAULTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_recovery_sweep(seed, fault):
    """Crash/partition then restart/rejoin: the run must end converged
    (full view, identical digests), with exactly-once execution per
    member incarnation and every protocol invariant intact."""
    with record_protocol() as record, record_executions() as executions:
        report = run_scenario(recovery_spec(seed, fault))
    recovery = report["recovery"]
    assert recovery is not None and recovery["converged"], recovery
    counters = report["metrics"]["counters"]
    assert counters.get("scenario.convergence.failures", 0) == 0
    assert executions, "the sweep must actually execute calls"
    assert check_exactly_once(executions) == []
    violations = check_invariants(record, total_order=True)
    assert violations == []


def test_convergence_check_catches_lost_state_transfer(monkeypatch):
    """Mutation smoke-check: a member that silently drops incoming state
    snapshots rejoins with stale state — the convergence verdict must
    flag the digest divergence, proving the checker has teeth."""
    from repro.core.server import ObjectGroupServer

    monkeypatch.setattr(
        ObjectGroupServer, "_receive_state", lambda self, snapshot: None
    )
    report = run_scenario(recovery_spec(7, "crash-restart"))
    assert report["recovery"]["converged"] is False
    assert report["metrics"]["counters"].get("scenario.convergence.failures", 0) >= 1


# ---------------------------------------------------------------------------
# sharded sweep: seed x shard-count x crash cells over the sharded kvstore
# ---------------------------------------------------------------------------
SHARD_COUNTS = [1, 2]
SHARD_FAULTS = ["none", "crash-restart"]


def sharded_spec(seed: int, shards: int, fault: str) -> dict:
    faults = (
        [
            {"at": 0.8, "kind": "crash", "target": "s1"},
            {"at": 1.6, "kind": "restart", "target": "s1"},
        ]
        if fault == "crash-restart"
        else []
    )
    return {
        "name": f"sharded-{shards}shard-s{seed}-{fault}",
        "seed": seed,
        "topology": "lan",
        "settle": 1.0,
        "group": {
            "replicas": 4,
            "style": "open",
            "ordering": "asymmetric",
            "liveliness": "lively",
            "silence_period": 30e-3,
            "suspicion_timeout": 150e-3,
            "flush_timeout": 150e-3,
            "retry": {"max_attempts": 4, "base_delay": 0.1, "max_delay": 1.0},
            "shards": shards,
        },
        "traffic": {
            "workload": "sharded_kvstore",
            "arrivals": {"kind": "poisson", "rate": 5.0},
            "churn": {"initial": 2},
            "duration": 2.0,
            "drain": 8.0,
            "operation": "mixed",
            "mode": "all",
            "timeout": 2.0,
            "bindings": 2,
            "keys": {
                "space": 32,
                "distribution": "zipf",
                "alpha": 1.1,
                "multi_fraction": 0.25,
                "multi_size": 4,
            },
        },
        "faults": faults,
        "slos": [],
    }


@pytest.mark.parametrize("fault", SHARD_FAULTS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_sweep(seed, shards, fault):
    """Every shard keeps its own total order and gap-free FIFO, execution
    is exactly-once per member incarnation across single-key calls and
    scatter/gather, and the run ends with parent + every shard converged."""
    with record_protocol() as record, record_executions() as executions:
        report = run_scenario(sharded_spec(seed, shards, fault))
    recovery = report["recovery"]
    assert recovery is not None and recovery["converged"], recovery
    assert recovery["provisioned"]
    assert executions, "the sweep must actually execute calls"
    assert check_exactly_once(executions) == []
    assert check_sharded_invariants(record, "svc", shards) == []


def test_genuineness_check_catches_broadcast_routing(monkeypatch):
    """Mutation smoke-check: a router bug that multicasts single-key calls
    to *every* shard must trip the genuineness invariant — proving the
    unaddressed-shards-do-zero-work check has teeth."""
    from repro.apps import ShardedKVClient
    from repro.shard.binding import ShardedBinding
    from repro.sim import run_process
    from tests.core_helpers import AppCluster
    from tests.invariants import check_genuineness, protocol_mark
    from tests.test_shard import keys_for_shard, serve_all_sharded, sharded_client

    original = ShardedBinding._attempt

    def broadcast(self, shard_no, operation, args, mode, timeout, *retry):
        results = [
            original(self, n, operation, args, mode, timeout, *retry)
            for n in range(self.num_shards)
        ]
        return results[shard_no]

    monkeypatch.setattr(ShardedBinding, "_attempt", broadcast)
    c = AppCluster(servers=4, clients=1)
    serve_all_sharded(c, num_shards=2)
    kv = ShardedKVClient(sharded_client(c, 2), timeout=5.0)
    with record_protocol() as record:
        mark = protocol_mark(record)
        key = keys_for_shard(0, 2, 1)[0]

        def traffic():
            yield kv.put(key, "v")

        run_process(c.sim, traffic(), until=c.sim.now + 5.0)
    violations = check_genuineness(record, "kv", addressed={0}, mark=mark)
    assert violations, "broadcast routing must violate genuineness"


# ---------------------------------------------------------------------------
# combined-invocation sweep: scheme shape x fault cells over map_reduce
# ---------------------------------------------------------------------------
GMI_SHAPES = ["combined_flat", "combined_tree"]
GMI_FAULTS = {
    "none": [],
    "crash-restart": [
        {"at": 0.8, "kind": "crash", "target": "s1"},
        {"at": 1.6, "kind": "restart", "target": "s1"},
    ],
}


def gmi_spec(seed: int, shape: str, fault: str) -> dict:
    return {
        "name": f"gmi-{shape}-s{seed}-{fault}",
        "seed": seed,
        "topology": "lan",
        "settle": 1.0,
        "group": {
            "replicas": 3,
            "style": "open",
            "ordering": "asymmetric",
            "liveliness": "lively",
            "silence_period": 30e-3,
            "suspicion_timeout": 150e-3,
            "flush_timeout": 150e-3,
            "retry": {"max_attempts": 4, "base_delay": 0.1, "max_delay": 1.0},
        },
        "traffic": {
            "workload": "map_reduce",
            "arrivals": {"kind": "poisson", "rate": 4.0},
            "churn": {"initial": 2},
            "duration": 2.0,
            "drain": 8.0,
            "operation": "aggregate",
            "timeout": 3.0,
            "scheme": shape,
            "reply": "combine",
            "reducer": "sum",
            "callers": 4,
        },
        "faults": GMI_FAULTS[fault],
        "slos": [],
    }


@pytest.mark.parametrize("fault", sorted(GMI_FAULTS))
@pytest.mark.parametrize("shape", GMI_SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_gmi_sweep(seed, shape, fault):
    """A 4-caller combined cohort under open-loop traffic: every logical
    call collapses to exactly one root-issued group invocation executed
    once per live member, every reducer fold is arrival-order and
    tree-shape independent, the protocol invariants hold, and a crashed
    and restarted replica rejoins converged."""
    with record_protocol() as record, record_executions() as executions, \
            record_combined() as issues, record_reductions() as folds:
        report = run_scenario(gmi_spec(seed, shape, fault))
    recovery = report["recovery"]
    assert recovery is not None and recovery["converged"], recovery
    assert issues, "the sweep must issue combined calls"
    assert report["metrics"]["counters"].get("gmi.combined.calls", 0) == len(issues)
    exclude = {"s1"} if fault == "crash-restart" else set()
    assert check_combined_exactly_once(
        issues, executions, ["s0", "s1", "s2"], exclude=exclude
    ) == []
    assert folds, "reply combining must actually fold reducer inputs"
    assert check_reducer_determinism(folds) == []
    violations = check_invariants(record, total_order=True, exclude=exclude)
    assert violations == []


def test_combined_checker_catches_double_issue(monkeypatch):
    """Mutation smoke-check: a root that issues the merged group call twice
    per logical combined call must trip ``check_combined_exactly_once`` —
    the cohort's calls would escape as 2N invocations."""
    from repro.core.combined import CombinedBinding
    from repro.core import SchemeConfig
    from tests.core_helpers import AppCluster, Counter, bind_combined_cohort

    original = CombinedBinding._issue

    def doubled(self, call_no, operation, merged_parts, count, timeout):
        original(self, call_no, operation, merged_parts, count, timeout)
        original(self, call_no, operation, merged_parts, count, timeout)

    monkeypatch.setattr(CombinedBinding, "_issue", doubled)
    c = AppCluster(servers=2, clients=2, seed=3)
    with record_combined() as issues, record_executions() as executions:
        c.serve_all("svc", Counter)
        scheme = SchemeConfig(
            invocation="combined_flat", reply="combine", reducer="sum",
            callers=list(c.client_names),
        )
        bindings = bind_combined_cohort(c, scheme)
        for binding in bindings:
            binding.invoke("incr", (1,), timeout=5.0)
        c.run(2.0)
    violations = check_combined_exactly_once(issues, executions, c.server_names)
    assert violations, "a double-issued combined call must be flagged"


def test_reducer_checker_catches_unlawful_fold():
    """Mutation smoke-check: a non-commutative fold smuggled past bind-time
    validation (by constructing the Reducer directly) must trip
    ``check_reducer_determinism`` — its result depends on arrival order."""
    from repro.core.scheme import Reducer

    rogue = Reducer("sub", lambda a, b: a - b)  # bypasses validate_reducer
    with record_reductions() as folds:
        rogue.reduce([5, 3, 2])
    violations = check_reducer_determinism(folds)
    assert violations, "a subtraction fold must be flagged as order-dependent"


# ---------------------------------------------------------------------------
# satellite: sequencer fail-over mid-batch
# ---------------------------------------------------------------------------
def test_sequencer_failover_mid_batch():
    """The sequencer crashes holding assigned-but-unsent batched tickets;
    the survivors re-ticket through the new sequencer and deliver without
    conflicting order."""
    c = Cluster(4, seed=9)
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        liveliness=Liveliness.LIVELY,
        silence_period=20e-3,
        suspicion_timeout=100e-3,
        ordering_config=OrderingConfig(ticket_batch_max=64, ticket_batch_delay=0.5),
    )
    with record_protocol() as record:
        sessions = build_group(c, config)
        # non-sequencer members multicast; the sequencer n0 accumulates
        # ticket assignments in a wide-open batch window
        for i in range(3):
            sessions[1].send(f"x{i}")
            sessions[2].send(f"y{i}")
        # crash the sequencer before the batch window (0.5 s) can close,
        # verifying it really holds assigned-but-unsent tickets at that point
        pending_at_crash = []

        def crash_sequencer():
            pending_at_crash.append(c.services["n0"].ticket_batcher.pending_count())
            c.net.crash("n0")

        c.sim.schedule(0.05, crash_sequencer)
        c.run(4.0)
        assert pending_at_crash[0] > 0
        survivors = sessions[1:]
        assert all(set(s.view.members) == {"n1", "n2", "n3"} for s in survivors)
        # every multicast reaches every survivor, in one agreed order
        delivered = [record.deliveries("g", m) for m in ("n1", "n2", "n3")]
        assert delivered[0] == delivered[1] == delivered[2]
        assert len(delivered[0]) == 6
    violations = check_invariants(record, total_order=True, exclude={"n0"})
    assert violations == []


# ---------------------------------------------------------------------------
# join-under-loss: joins while traffic flows, sequencer != coordinator
# ---------------------------------------------------------------------------
def join_under_loss(seed: int, batch: bool):
    """One cell of the join-under-loss sweep: ``(cluster, record)`` after
    the run (also a deployment of ``tests/test_orb_wire_equivalence.py``)."""
    topology = Topology()
    topology.add_site("lan", JitteredLatency(Topology.LAN_LATENCY, jitter=0.2), loss=0.02)
    c = Cluster(5, topology=topology, seed=seed)
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        sequencer_hint="n1",
        suspicion_timeout=5.0,
        flush_timeout=2.0,
        ordering_config=OrderingConfig(
            ticket_batch_max=6 if batch else 1, ticket_batch_delay=2e-3
        ),
    )
    with record_protocol() as record:
        sessions = build_group(c, config, members=["n0", "n1", "n2"])
        for tick in range(60):
            for session in sessions:
                c.sim.schedule(
                    tick * 10e-3, session.send, f"{session.member_id}-{tick}"
                )
        for at, joiner in ((0.15, "n3"), (0.35, "n4")):
            c.sim.schedule(at, c.services[joiner].join_group, "g", "n0")
        c.run(6.0)
    return c, record


@pytest.mark.parametrize("batch", BATCHING)
@pytest.mark.parametrize("seed", SEEDS)
def test_join_under_loss_sweep(seed, batch):
    """Two members join a lossy asymmetric group in mid-traffic.  The
    sequencer is hinted to n1 while n0 coordinates the view changes, so a
    joiner hears tickets and its ViewInstall on different channels, and a
    2% frame loss reorders them freely: whatever reaches a joiner before
    its first view must be replayed after it, never dropped."""
    c, record = join_under_loss(seed, batch)
    views = {name: c.services[name].session("g").view for name in c.names}
    assert all(set(view.members) == set(c.names) for view in views.values()), views
    assert len(record.deliveries("g", "n0")) == 180
    assert check_invariants(record, total_order=True) == []
