"""Sharded subgroups (repro.shard): layout, routing, scatter/gather,
re-layout on membership change, and crash recovery.

The layout function is pure-function tested; the service tests run a sharded
kvstore on an AppCluster and assert the paper-level properties: each shard
orders independently (its own sequencer), single-key calls touch only the
owning shard (FlexCast genuineness, via the protocol recorder), and
joins/crashes re-layout deterministically with state carried over.
"""

import itertools

import pytest

from repro.apps import ShardedKVClient, ShardKVServant
from repro.core import Mode
from repro.errors import ProvisioningError
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.recovery import RecoveryManager
from repro.shard import key_to_shard, round_robin, sharded_convergence_status
from repro.sim import all_of, run_process
from tests.core_helpers import AppCluster, cancelled
from tests.invariants import (
    check_genuineness,
    check_sharded_invariants,
    protocol_mark,
    record_protocol,
    shard_of_group,
)

FAST = GroupConfig(
    ordering=Ordering.ASYMMETRIC,
    liveliness=Liveliness.LIVELY,
    silence_period=20e-3,
    suspicion_timeout=100e-3,
    flush_timeout=150e-3,
)


def serve_all_sharded(cluster, num_shards, names=None, min_members=1):
    servers = []
    for name in names if names is not None else cluster.server_names:
        servers.append(
            cluster.services[name].serve_sharded(
                "kv",
                ShardKVServant,
                num_shards,
                min_members_per_shard=min_members,
                config=FAST,
            )
        )
        cluster.run(0.3)
    cluster.run(1.5)
    assert all(s.ready.done and not s.ready.failed for s in servers)
    return servers


def sharded_client(cluster, num_shards, client=0, **kwargs):
    kwargs.setdefault("liveliness", Liveliness.LIVELY)
    kwargs.setdefault("suspicion_timeout", 100e-3)
    binding = cluster.client(client).bind_sharded("kv", num_shards, **kwargs)
    cluster.run(1.5)
    assert binding.ready.done and not binding.ready.failed
    return binding


def put_all(kv, items):
    """Write ``items`` as concurrent single-key puts."""
    return all_of([kv.put(key, value) for key, value in items.items()])


def keys_for_shard(shard_no, num_shards, count):
    chosen = []
    for i in itertools.count():
        key = f"k{i}"
        if key_to_shard(key, num_shards) == shard_no:
            chosen.append(key)
            if len(chosen) == count:
                return chosen


# ---------------------------------------------------------------------------
# layout layer (pure functions)
# ---------------------------------------------------------------------------
def test_round_robin_is_deterministic_and_balanced():
    assignment = round_robin(["n3", "n1", "n2", "n0"], 2)
    assert assignment == [["n0", "n2"], ["n1", "n3"]]  # sorted, dealt cyclically
    assert round_robin(["n0", "n1", "n2"], 2) == [["n0", "n2"], ["n1"]]
    with pytest.raises(ProvisioningError):
        round_robin(["n0"], 2)
    with pytest.raises(ProvisioningError):
        round_robin(["n0", "n1", "n2"], 2, min_members_per_shard=2)


def test_key_to_shard_is_stable_and_spreads():
    assert key_to_shard("anything", 1) == 0
    assert key_to_shard("k1", 4) == key_to_shard("k1", 4)
    assert {key_to_shard(f"key{i}", 4) for i in range(64)} == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        key_to_shard("k", 0)


# ---------------------------------------------------------------------------
# provisioning and convergence
# ---------------------------------------------------------------------------
def test_sharded_service_provisions_and_converges():
    c = AppCluster(servers=4, clients=1)
    servers = serve_all_sharded(c, num_shards=2)
    assert all(s.provisioned for s in servers)
    assert len({tuple(map(tuple, s.assignment)) for s in servers}) == 1
    status = sharded_convergence_status(c.services, "kv", c.net)
    assert status["converged"], status
    assert sorted(status["view"]) == ["s0", "s1", "s2", "s3"]
    # every node hosts exactly the shards the agreed layout assigns it
    assignment = servers[0].assignment
    assert assignment == [["s0", "s2"], ["s1", "s3"]]
    for i, name in enumerate(c.server_names):
        expected = sorted(n for n, a in enumerate(assignment) if name in a)
        assert c.services[name].servers["kv"].hosted_shards == expected
    # each shard has its own sequencer: independent ordering sessions
    sequencers = {
        shard_no: c.services[assignment[shard_no][0]]
        .servers["kv"]
        .shard_server(shard_no)
        .group.sequencer
        for shard_no in (0, 1)
    }
    assert sequencers[0] != sequencers[1]


def test_underprovisioned_group_stays_degraded_until_members_arrive():
    c = AppCluster(servers=4, clients=0)
    first = serve_all_sharded(c, num_shards=2, names=["s0"], min_members=2)
    assert first[0].ready.done and not first[0].provisioned
    assert c.sim.obs.metrics.counter_value("shard.provisioning_failures") >= 1
    status = sharded_convergence_status(c.services, "kv", c.net)
    assert not status["converged"] and not status["provisioned"]
    rest = serve_all_sharded(c, num_shards=2, names=["s1", "s2", "s3"],
                             min_members=2)
    c.run(2.0)
    assert all(s.provisioned for s in first + rest)
    status = sharded_convergence_status(c.services, "kv", c.net)
    assert status["converged"], status


# ---------------------------------------------------------------------------
# routing: single-key calls and genuineness
# ---------------------------------------------------------------------------
def test_single_key_calls_route_to_owning_shard_only():
    c = AppCluster(servers=4, clients=1)
    servers = serve_all_sharded(c, num_shards=2)
    binding = sharded_client(c, num_shards=2)
    kv = ShardedKVClient(binding, mode=Mode.ALL, timeout=5.0)
    shard0_keys = keys_for_shard(0, 2, 3)

    with record_protocol() as record:
        mark = protocol_mark(record)

        def traffic():
            for key in shard0_keys:
                yield kv.put(key, f"v:{key}")
            for key in shard0_keys:
                value = yield kv.get(key)
                assert value == f"v:{key}"

        run_process(c.sim, traffic(), until=c.sim.now + 10.0)

    # genuineness: shard 1 (and its cs groups) saw zero protocol work
    assert check_genuineness(record, "kv", addressed={0}, mark=mark) == []
    assert check_sharded_invariants(record, "kv", 2) == []
    # the data lives on shard 0's replicas and nowhere else
    assignment = servers[0].assignment
    for name in assignment[0]:
        servant = c.services[name].servers["kv"].shard_server(0).servant
        assert set(shard0_keys) <= set(servant._data)
    for name in assignment[1]:
        servant = c.services[name].servers["kv"].shard_server(1).servant
        assert not servant._data
    # replies were counted against the shard's view size (2 members, ALL)
    future = kv.binding.invoke("get_or", (shard0_keys[0], None),
                               key=shard0_keys[0], mode=Mode.ALL)
    c.run(3.0)
    assert len(future.result()) == 2


def test_shard_of_group_parses_recorded_group_names():
    assert shard_of_group("svc:kv#3", "kv") == 3
    assert shard_of_group("cs:c0:kv#1:7", "kv") == 1
    assert shard_of_group("svc:kv", "kv") is None
    assert shard_of_group("svc:other#1", "kv") is None
    assert shard_of_group("peer:room", "kv") is None


# ---------------------------------------------------------------------------
# scatter/gather
# ---------------------------------------------------------------------------
def test_scatter_gather_addresses_only_owning_shards():
    c = AppCluster(servers=4, clients=1)
    servers = serve_all_sharded(c, num_shards=2)
    binding = sharded_client(c, num_shards=2)
    kv = ShardedKVClient(binding, mode=Mode.ALL, timeout=5.0)
    items = {f"k{i}": i for i in range(12)}

    def traffic():
        yield put_all(kv, items)
        got = yield kv.mget(list(items))
        assert got == items

    run_process(c.sim, traffic(), until=c.sim.now + 10.0)

    # partitioning: each shard's replicas hold exactly their keys
    assignment = servers[0].assignment
    for shard_no in (0, 1):
        expected = {k for k in items if key_to_shard(k, 2) == shard_no}
        for name in assignment[shard_no]:
            servant = c.services[name].servers["kv"].shard_server(shard_no).servant
            assert set(servant._data) == expected
    # a scatter to keys of one shard contacts one shard only
    shard0_keys = [k for k in items if key_to_shard(k, 2) == 0][:3]
    with record_protocol() as record:
        mark = protocol_mark(record)

        def narrow():
            got = yield kv.mget(shard0_keys)
            assert got == {k: items[k] for k in shard0_keys}

        run_process(c.sim, narrow(), until=c.sim.now + 5.0)
    assert check_genuineness(record, "kv", addressed={0}, mark=mark) == []
    assert c.sim.obs.metrics.counter_value("shard.client.scatters") == 2  # the two mgets
    snapshot = c.sim.obs.metrics_snapshot()
    fanout = snapshot["histograms"].get("shard.scatter.fanout")
    assert fanout and fanout["count"] == 2


# ---------------------------------------------------------------------------
# re-layout on membership change
# ---------------------------------------------------------------------------
def test_join_triggers_relayout_and_data_survives():
    c = AppCluster(servers=5, clients=1)
    servers = serve_all_sharded(c, num_shards=2, names=c.server_names[:4])
    binding = sharded_client(c, num_shards=2)
    kv = ShardedKVClient(binding, mode=Mode.ALL, timeout=5.0)
    items = {f"k{i}": i for i in range(8)}

    def seed():
        yield put_all(kv, items)

    run_process(c.sim, seed(), until=c.sim.now + 5.0)
    version_before = servers[0].layout_version

    late = serve_all_sharded(c, num_shards=2, names=["s4"])
    c.run(3.0)
    assert servers[0].layout_version > version_before
    assert servers[0].assignment == [["s0", "s2", "s4"], ["s1", "s3"]]
    assert late[0].hosted_shards == [0]
    status = sharded_convergence_status(c.services, "kv", c.net)
    assert status["converged"], status
    # the joiner received shard 0's state
    shard0_keys = {k for k in items if key_to_shard(k, 2) == 0}
    assert set(late[0].shard_server(0).servant._data) == shard0_keys

    def verify():
        got = yield kv.mget(list(items))
        assert got == items

    run_process(c.sim, verify(), until=c.sim.now + 5.0)


def test_sharded_binding_close_fails_pending_calls_and_leaves_every_shard():
    from repro.errors import BindingBroken

    c = AppCluster(servers=4, clients=1)
    serve_all_sharded(c, num_shards=2)
    binding = sharded_client(c, 2)
    groups = [binding.binding(shard_no).group_name for shard_no in range(2)]
    keys = keys_for_shard(0, 2, 1) + keys_for_shard(1, 2, 1)
    pending = [binding.invoke("put", (key, "v"), key=key, timeout=30.0) for key in keys]
    pending.append(binding.scatter("mget", keys, timeout=30.0))
    timers = [p.timer for sub in binding._bindings for p in sub._pending.values()]
    assert len(timers) == 4
    binding.close()
    binding.close()  # idempotent
    for fut in pending:
        assert fut.failed and isinstance(fut.exception, BindingBroken)
    assert all(cancelled(timer) for timer in timers)
    late = binding.invoke("get", ("k0",), key="k0")
    assert late.failed and isinstance(late.exception, BindingBroken)
    c.run(2.0)  # no remap: a closed sharded binding stays closed
    assert c.sim.obs.metrics.counter_value("shard.client.remaps") == 0
    assert all(c.client(0).gcs.session(name) is None for name in groups)


def test_stop_leaves_every_hosted_shard_and_then_the_parent():
    c = AppCluster(servers=4, clients=0)
    servers = serve_all_sharded(c, num_shards=2)
    assert servers[3].hosted_shards == [1]
    stopped = servers[3].stop()
    assert servers[3].hosted_shards == []  # handed back at once, not retired
    c.run(3.0)
    assert stopped.done and not stopped.failed
    assert not [g for g in c.services["s3"].gcs.sessions if g.startswith("svc:kv")]
    assert "kv#1" not in c.services["s3"].servers
    # the survivors saw two graceful departures, not a suspicion
    assert c.sim.obs.metrics.counter_value("gc.membership.suspicions") == 0
    for server in servers[:3]:
        assert server.group.members == ["s0", "s1", "s2"]
        assert server.assignment == [["s0", "s2"], ["s1"]]
        for shard_no in server.hosted_shards:
            assert server.shard_server(shard_no).members == server.assignment[shard_no]


# ---------------------------------------------------------------------------
# retirement: the three ways a handover ends
#
# Four members, two shards: [[s0, s2], [s1, s3]].  Crashing s1 re-lays the
# survivors out as [[s0, s3], [s2]], so s2 retires from shard 0 (successor
# s3) and s3 from shard 1 (successor s2).
# ---------------------------------------------------------------------------
def flight_times(cluster, node, kind, group):
    """(time, detail) of ``node``'s flight-recorder events of one kind."""
    return [
        (t, detail)
        for _seq, t, _node, k, g, detail in cluster.sim.obs.flight.events(node)
        if k == kind and g == group
    ]


def retiring_cluster(monkeypatch, blocked=None):
    """The cluster above, just past s1's crash.  ``blocked`` names a
    member whose new shard member never starts, so the handover it would
    have taken over has no successor."""
    c = AppCluster(servers=4, clients=0)
    servers = serve_all_sharded(c, num_shards=2)
    if blocked is not None:
        index = c.server_names.index(blocked)
        monkeypatch.setattr(servers[index], "_start_shard_member", lambda *_args: None)
    c.net.crash("s1")
    c.run(0.5)
    assert servers[0].assignment == [["s0", "s3"], ["s2"]]
    return c, servers


def test_a_successors_join_ends_retirement_at_that_install(monkeypatch):
    c, _servers = retiring_cluster(monkeypatch)
    c.run(2.0)
    for member, shard_no, successor in (("s2", 0, "s3"), ("s3", 1, "s2")):
        group = f"svc:kv#{shard_no}"
        [(began, _)] = flight_times(c, member, "shard.retiring", group)
        [(retired, _)] = flight_times(c, member, "shard.retired", group)
        # the view the successor entered in, as the retiring member installed it
        successor_view = flight_times(c, successor, "view", group)[0][1].split()[0]
        [brought] = [
            t for t, detail in flight_times(c, member, "view", group)
            if detail.split()[0] == successor_view
        ]
        assert began < retired == brought


def test_without_a_successor_retirement_ends_at_its_deadline(monkeypatch):
    c, _servers = retiring_cluster(monkeypatch, blocked="s2")
    c.run(2.0)
    [(began, _)] = flight_times(c, "s3", "shard.retiring", "svc:kv#1")
    [(retired, _)] = flight_times(c, "s3", "shard.retired", "svc:kv#1")
    assert retired == pytest.approx(began + 3 * FAST.flush_timeout + 1.0, abs=1e-9)


def test_an_exclusion_mid_retirement_tears_down_at_once_and_counts_once(monkeypatch):
    c, servers = retiring_cluster(monkeypatch, blocked="s3")
    retiring = servers[2]
    assert list(retiring._retiring) == [0]
    retired = c.sim.obs.metrics.counter("shard.members.retired")
    before = retired.value
    at_close = []  # (time, retired count) once the session's close ran
    retiring.shard_server(0).group.left.add_done_callback(
        lambda _f: at_close.append((c.sim.now, retired.value))
    )
    # shard 0's coordinator suspects s2 and installs a view without it
    coordinator = c.services["s0"].servers["kv"].shard_server(0).group
    coordinator.membership.on_local_suspicion("s2")
    c.run(3.0)  # well past the deadline the retirement had
    [(torn_down, _)] = flight_times(c, "s2", "shard.retired", "svc:kv#0")
    assert at_close == [(torn_down, before + 1)]
    assert retiring.shard_server(0) is None and not retiring._retiring


@pytest.mark.parametrize("exit", ["stop", "restart"])
def test_stop_and_restart_leave_no_retirement_timer(monkeypatch, exit):
    c, servers = retiring_cluster(monkeypatch, blocked="s3")
    retiring = servers[2]
    timer = retiring._retiring[0]
    getattr(retiring, exit)()
    assert cancelled(timer) and not retiring._retiring


def test_crash_relayout_restart_reconverges_with_state():
    c = AppCluster(servers=4, clients=1)
    servers = serve_all_sharded(c, num_shards=2)
    binding = sharded_client(c, num_shards=2)
    kv = ShardedKVClient(binding, mode=Mode.ALL, timeout=5.0)
    items = {f"k{i}": i for i in range(10)}

    def seed():
        yield put_all(kv, items)

    run_process(c.sim, seed(), until=c.sim.now + 5.0)

    recovery = RecoveryManager(c.sim, c.net, c.services, "kv")
    c.net.crash("s1")
    c.run(4.0)
    # survivors re-laid out: every shard still served, by live members only
    live_status = sharded_convergence_status(c.services, "kv", c.net)
    assert live_status["converged"], live_status
    assert sorted(live_status["view"]) == ["s0", "s2", "s3"]

    recovery.restart_member("s1")
    c.run(10.0)
    status = sharded_convergence_status(c.services, "kv", c.net)
    assert status["converged"], status
    assert sorted(status["view"]) == ["s0", "s1", "s2", "s3"]
    assert servers[0].assignment == [["s0", "s2"], ["s1", "s3"]]
    # shard state survived the crash and followed the layout home
    for shard_no in (0, 1):
        expected = {k for k in items if key_to_shard(k, 2) == shard_no}
        for name in servers[0].assignment[shard_no]:
            servant = c.services[name].servers["kv"].shard_server(shard_no).servant
            assert set(servant._data) == expected, (name, shard_no)

    def verify():
        got = yield kv.mget(list(items))
        assert got == items

    run_process(c.sim, verify(), until=c.sim.now + 5.0)
