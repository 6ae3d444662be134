"""Crash-recovery and rejoin: restart protocol, retry/backoff, caches.

The seed treated a crash as permanent: a recovered node stayed outside its
old group and a timed-out call stayed failed.  These tests pin down the
recovery subsystem end to end — member restart with state re-transfer
(including the reply caches, so duplicate suppression survives a restart),
the client's per-call retry policy, the jittered rebind backoff, and the
convergence verdict the scenario runner reports.
"""

import pytest

from repro.core import BindingStyle, Mode
from repro.core.messages import InvokeMsg
from repro.errors import BindingBroken, CommFailure, GroupError
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.recovery import (
    RecoveryManager,
    RetryPolicy,
    backoff_delay,
    convergence_status,
)
from repro.sim import run_process
from tests.core_helpers import AppCluster, Counter, bind_scheme

FAST = GroupConfig(
    ordering=Ordering.ASYMMETRIC,
    liveliness=Liveliness.LIVELY,
    silence_period=20e-3,
    suspicion_timeout=100e-3,
    flush_timeout=150e-3,
)


def fast_binding(cluster, client=0, **kwargs):
    return bind_scheme(cluster, client=client, fast=True, **kwargs)


def warm_up(cluster, binding, amount=1):
    def warm():
        yield binding.invoke("incr", (amount,), mode=Mode.ALL)

    run_process(cluster.sim, warm(), until=cluster.sim.now + 3.0)


# ---------------------------------------------------------------------------
# backoff / retry policy units
# ---------------------------------------------------------------------------
def test_backoff_delay_envelope_cap_and_jitter():
    import random

    rng = random.Random(7)
    for attempt in range(1, 10):
        envelope = min(2.0, 0.1 * 2.0 ** (attempt - 1))
        for _ in range(50):
            delay = backoff_delay(attempt, 0.1, 2.0, 2.0, rng)
            assert envelope * 0.75 - 1e-12 <= delay <= envelope * 1.25 + 1e-12
    # jitter actually spreads (not a fixed point)
    samples = {backoff_delay(3, 0.1, 2.0, 2.0, rng) for _ in range(20)}
    assert len(samples) > 1
    with pytest.raises(ValueError):
        backoff_delay(0, 0.1, 2.0, 2.0, rng)


def test_retry_policy_validation_and_roundtrip():
    assert not RetryPolicy().enabled  # default off = seed behaviour
    policy = RetryPolicy.from_dict({"max_attempts": 3, "base_delay": 0.05})
    assert policy.enabled and policy.max_attempts == 3
    assert RetryPolicy.from_dict(policy.to_dict()) == policy
    with pytest.raises((TypeError, ValueError)):
        RetryPolicy.from_dict({"max_attempts": 3, "bogus": 1})
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=-1)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=2, base_delay=1.0, max_delay=0.5)


def test_rebind_backoff_grows_with_attempts():
    """Satellite: the fixed rebind delay became a jittered exponential."""
    c = AppCluster(servers=2, clients=1)
    c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN)
    envelopes = []
    for attempt in range(5):
        envelope = min(1.5, 0.25 * 2.0 ** attempt)
        envelopes.append(envelope)
        for _ in range(20):
            delay = binding.REBIND.delay(attempt + 1, binding._backoff_rng)
            assert envelope * 0.75 - 1e-12 <= delay <= envelope * 1.25 + 1e-12
    assert envelopes == sorted(envelopes)  # the envelope itself is monotone


def test_closed_server_count_tracks_view():
    """Satellite: the pre-view path answers from the advertised membership,
    the post-view path from the (authoritative) installed view."""
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.CLOSED)
    assert binding._closed_server_count() == 3  # view minus this client
    gc = binding._gc
    binding._gc = None  # pre-view: fall back to the registry's answer
    try:
        assert binding._closed_server_count() == len(binding.servers)
    finally:
        binding._gc = gc


# ---------------------------------------------------------------------------
# restart / rejoin
# ---------------------------------------------------------------------------
def test_plain_recover_leaves_group_shrunk():
    """Seed behaviour, kept as the contrast: power-on alone does not rejoin."""
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN)
    warm_up(c, binding)
    c.net.crash("s1")
    c.run(2.0)
    c.net.recover("s1")
    c.run(4.0)
    status = convergence_status(c.services, "svc", c.net)
    assert not status["converged"]
    assert "s1" in status["live"] and "s1" not in (status["view"] or [])


def test_restart_rejoins_with_identical_state():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN)
    warm_up(c, binding)
    c.net.crash("s1")
    c.run(2.0)
    warm_up(c, binding)  # state moves on while s1 is down
    c.net.recover("s1")
    servers[1].restart()
    c.run(6.0)
    status = convergence_status(c.services, "svc", c.net)
    assert status["converged"], status
    assert sorted(status["view"]) == ["s0", "s1", "s2"]
    assert servers[1].servant.value == 2  # state transfer caught it up
    assert len(set(status["digests"].values())) == 1
    assert c.sim.obs.metrics.counter_value("server.rejoins") == 1


def test_recovery_manager_records_recovery_time():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN)
    warm_up(c, binding)
    recovery = RecoveryManager(c.sim, c.net, c.services, "svc")
    c.net.crash("s1")
    c.run(2.0)
    recovery.restart_member("s1")
    c.run(6.0)
    assert convergence_status(c.services, "svc", c.net)["converged"]
    assert c.sim.obs.metrics.counter_value("recovery.converged") == 1
    assert c.sim.obs.metrics.counter_value("recovery.restarts") >= 1
    snapshot = c.sim.obs.metrics_snapshot()
    hist = snapshot["histograms"].get("recovery.time")
    assert hist and hist["count"] >= 1


def test_heal_with_rejoin_pulls_minority_back():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN)
    warm_up(c, binding)
    recovery = RecoveryManager(c.sim, c.net, c.services, "svc")
    c.net.partition({"s2"})
    c.run(2.0)
    c.net.heal()
    recovery.after_heal()
    c.run(8.0)
    status = convergence_status(c.services, "svc", c.net)
    assert status["converged"], status
    assert sorted(status["view"]) == ["s0", "s1", "s2"]


def test_duplicate_suppression_survives_restart():
    """The rejoin state snapshot carries the reply caches: replaying an old
    call after the restart must not re-execute anywhere."""
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN)
    warm_up(c, binding)
    c.net.crash("s1")
    c.run(2.0)
    c.net.recover("s1")
    servers[1].restart()
    c.run(6.0)
    assert convergence_status(c.services, "svc", c.net)["converged"]
    assert servers[1]._reply_cache, "snapshot must carry the reply cache"
    # replay call_no 1 (the warm-up call) through the client group, as a
    # lost-reply retry would
    gc = c.client(0).gcs.session(binding.group_name)
    gc.send(InvokeMsg("c0", 1, "incr", (1,), Mode.ALL, False, ""))
    c.run(2.0)
    assert [s.servant.value for s in servers] == [1, 1, 1]


# ---------------------------------------------------------------------------
# stop() during a rejoin: ends the loop it interrupts
# ---------------------------------------------------------------------------
def test_stop_between_rejoin_attempts_tears_down_and_ends_the_loop():
    """restart() leaves ``group`` None until the registry lookup returns (and
    again in every backoff window): stop() there used to raise
    AttributeError, and the loop it should have ended went on to rejoin."""
    c = AppCluster(servers=3, clients=0)
    servers = c.serve_all("svc", Counter, config=FAST)
    c.net.crash("s2")
    c.run(0.1)
    c.net.recover("s2")
    ready = servers[2].restart()
    assert servers[2].group is None  # the lookup is still in flight
    stopped = servers[2].stop()
    assert stopped.done and not stopped.failed
    assert ready.failed and isinstance(ready.exception, GroupError)
    c.run(30.0)
    assert servers[2].group is None
    assert "svc:svc" not in c.services["s2"].gcs.sessions
    assert c.sim.obs.metrics.counter_value("server.rejoins") == 0
    assert servers[0].members == servers[1].members == ["s0", "s1"]


def test_stop_while_joining_leaves_and_counts_no_rejoin():
    """A stop() that lands on a joining session leaves once the view
    installs; the superseded loop must not count a rejoin or resolve
    ``ready`` for a member that is on its way out."""
    c = AppCluster(servers=3, clients=0)
    servers = c.serve_all("svc", Counter, config=FAST)
    c.net.crash("s2")
    c.run(1.0)  # long enough for the survivors to remove s2: the join goes through
    assert servers[0].members == ["s0", "s1"]
    c.net.recover("s2")
    ready = servers[2].restart()
    while servers[2].group is None:
        c.sim.run(max_events=1)
    assert servers[2].group.state == "joining"
    stopped = servers[2].stop()
    assert ready.failed and isinstance(ready.exception, GroupError)
    c.run(30.0)
    assert stopped.done and not stopped.failed  # joined, then left
    assert c.sim.obs.metrics.counter_value("server.rejoins") == 0
    assert servers[0].members == servers[1].members == ["s0", "s1"]
    assert "svc:svc" not in c.services["s2"].gcs.sessions


# ---------------------------------------------------------------------------
# start(): the entry loop's give-up and re-create branches
# ---------------------------------------------------------------------------
def test_serve_waits_out_an_unreachable_registry_instead_of_forking_the_group():
    """A first ``serve`` whose lookup *times out* knows nothing about the
    group: it retries.  (It used to create the group on any lookup failure,
    so two members starting around a registry outage each made their own.)"""
    c = AppCluster(servers=2, clients=0)
    c.net.crash("registry")
    s0 = c.server(0).serve("svc", Counter(), config=FAST)
    c.run(1.0)
    assert not s0.ready.done  # lookup still in flight; nothing created
    c.net.recover("registry")
    s1 = c.server(1).serve("svc", Counter(), config=FAST)
    c.run(5.0)
    assert s0.ready.done and s1.ready.done
    assert s0.members == s1.members and sorted(s0.members) == ["s0", "s1"]
    assert c.sim.obs.metrics.counter_value("server.rejoins") == 0  # first starts


def test_restart_gives_up_after_the_attempt_budget():
    """An unreachable registry is retried with backoff, ``REJOIN.max_attempts``
    times; then ``ready`` fails and the failure is counted once."""
    c = AppCluster(servers=3, clients=0)
    servers = c.serve_all("svc", Counter, config=FAST)
    c.net.crash("s2")
    c.run(1.0)
    c.net.recover("s2")
    c.net.crash("registry")
    ready = servers[2].restart()
    c.run(20.0)  # nine lookups down (2 s timeout each), not yet the tenth
    assert not ready.done
    c.run(40.0)
    assert ready.failed and isinstance(ready.exception, GroupError)
    counter = c.sim.obs.metrics.counter_value
    assert counter("server.rejoin_failures") == 1
    assert counter("server.rejoins") == 0
    assert servers[2].group is None and servers[2]._rejoin_contact is None


def test_restart_recreates_a_group_the_registry_says_only_we_were_in():
    """The last advertisement names only our dead incarnation: nobody can
    answer a JoinReq.  The lookup is retried (a racing majority
    advertisement gets ``RECREATE_AFTER`` chances to land), then the member
    re-creates the group, counted as a rejoin."""
    c = AppCluster(servers=1, clients=1)
    (server,) = c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c)
    warm_up(c, binding)
    c.net.crash("s0")
    c.run(0.5)
    c.net.recover("s0")
    restarted = c.sim.now
    ready = server.restart()
    ready.add_done_callback(lambda _f: setattr(server, "recreated_at", c.sim.now))
    c.run(5.0)
    assert ready.done and not ready.failed
    assert server.members == ["s0"]
    assert c.sim.obs.metrics.counter_value("server.rejoins") == 1
    # two jittered backoffs (0.2 s and 0.4 s envelopes, -25 % at most) first
    assert server.recreated_at - restarted >= (0.2 + 0.4) * 0.75
    assert server.servant.value == 1  # the servant object survived; it serves again
    # and a rebound client is served by the new incarnation
    fut = c.client(0).bind("svc").call("incr", (1,), timeout=5.0)
    c.run(3.0)
    assert fut.result() == 2


# ---------------------------------------------------------------------------
# duplicates that reach a replica or a manager after the first run
# ---------------------------------------------------------------------------
def test_new_manager_reforwards_a_retried_call_and_replicas_replay_it():
    """The manager dies after the replicas executed and logged the call but
    before its ReplySet left.  The client's retry reaches a new manager,
    which has no reply set cached and re-forwards; every replica replays
    its logged reply instead of running the servant again."""
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(
        c, style=BindingStyle.OPEN, restricted=True, retry_policy=RETRY
    )
    warm_up(c, binding)
    assert binding.manager == "s0"
    fut = binding.invoke("incr", (1,), mode=Mode.ALL, timeout=0.15)
    while min(servers[1].servant.value, servers[2].servant.value) < 2:
        c.sim.run(max_events=1)
    c.net.crash("s0")  # its ReplySet (if it got that far) dies on the wire
    counter = c.sim.obs.metrics.counter_value
    executed = counter("server.requests_executed")
    suppressed = counter("server.duplicates_suppressed")
    c.run(8.0)
    assert fut.done and not fut.failed
    assert binding.manager != "s0"
    assert counter("server.requests_executed") == executed
    assert counter("server.duplicates_suppressed") == suppressed + 2  # s1 and s2
    assert fut.result().by_member() == {"s1": 2, "s2": 2}  # the first run's values
    assert servers[1].servant.value == servers[2].servant.value == 2


def test_retry_while_the_collector_is_open_is_dropped_not_reforwarded():
    """A retry that overtakes its own first run finds the manager still
    collecting (s1 and s2 are slow): it is dropped there, once — not
    forwarded again for every replica to replay or, worse, re-run."""
    c = AppCluster(servers=3, clients=1)
    servants = []

    def counter():  # the manager's is fast, so its CPU is free for the retry
        servant = Counter()
        if servants:
            servant.OP_COSTS = {"incr": 80e-3}  # under the suspicion timeout
        servants.append(servant)
        return servant

    c.serve_all("svc", counter, config=FAST)
    eager = RetryPolicy(max_attempts=6, base_delay=0.02, factor=2.0, max_delay=1.0)
    binding = fast_binding(c, style=BindingStyle.OPEN, retry_policy=eager)
    fut = binding.invoke("incr", (1,), mode=Mode.ALL, timeout=0.02)
    c.run(3.0)
    assert fut.done and not fut.failed
    counter_value = c.sim.obs.metrics.counter_value
    retries = counter_value("client.retries")
    assert retries >= 1
    # each one that was sent was suppressed once, at the manager — never
    # once per replica (a retry still backing off at completion is not sent)
    assert 1 <= counter_value("server.duplicates_suppressed") <= retries
    assert counter_value("server.requests_executed") == 3
    assert [servant.value for servant in servants] == [1, 1, 1]


def test_client_expelled_by_a_busy_manager_rebinds_instead_of_raising():
    """A 0.3 s servant under a 0.1 s suspicion timeout: the manager's CPU is
    busy for three timeouts, so it suspects the *client* and expels it from
    the client/server group.  The closed session must reach the binding as a
    manager loss (it rebinds around another member) — at the parent the next
    armed retry called ``send`` on it and ``NotMember`` came out of a
    simulator timer callback."""
    c = AppCluster(servers=3, clients=1)
    servants = []

    def slow_counter():
        servant = Counter()
        servant.OP_COSTS = {"incr": 0.3}
        servants.append(servant)
        return servant

    c.serve_all("svc", slow_counter, config=FAST)
    eager = RetryPolicy(max_attempts=6, base_delay=0.02, factor=2.0, max_delay=1.0)
    binding = fast_binding(c, style=BindingStyle.OPEN, retry_policy=eager)
    first_group = binding.group_name
    fut = binding.invoke("incr", (1,), mode=Mode.ALL, timeout=0.02)
    c.run(5.0)  # raised NotMember here
    assert fut.done and not fut.failed
    assert binding.rebinds >= 1 and binding.manager != "s0"
    assert binding.group_name != first_group
    assert [servant.value for servant in servants] == [1, 1, 1]  # exactly once


def test_an_expelled_client_with_nobody_left_to_bind_to_breaks_its_binding():
    """Expulsion takes the same exit as any manager loss: when no member
    is left to rebind around, the pending calls fail ``BindingBroken``."""
    c = AppCluster(servers=1, clients=1)
    c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN)
    warm_up(c, binding)
    pending = binding.invoke("incr", (1,), mode=Mode.ALL)
    binding._gc._close()  # what a ViewInstall without this member does
    c.run(1.0)
    assert pending.failed and isinstance(pending.exception, BindingBroken)


def test_an_expelled_closed_style_client_reforms_its_group():
    """Closed style: the client re-forms its group around the advertised
    members and the pending call is retried under its call number — it
    completes, exactly once at every replica."""
    c = AppCluster(servers=2, clients=1)
    servers = c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.CLOSED)
    warm_up(c, binding)
    first_group = binding.group_name
    pending = binding.invoke("incr", (1,), mode=Mode.ALL)
    binding._gc._close()
    c.run(3.0)
    assert pending.done and not pending.failed
    assert binding.rebinds == 1 and binding.group_name != first_group
    assert pending.result().by_member() == {"s0": 2, "s1": 2}
    assert [server.servant.value for server in servers] == [2, 2]


# ---------------------------------------------------------------------------
# the recovery manager's last resort
# ---------------------------------------------------------------------------
def test_stuck_solo_minority_is_force_rejoined():
    """A partition shorter than the suspicion timeout: s2's suspicions fire
    (here: are fired) inside it and it installs a solo view; the idle,
    event-driven majority never notices.  Both sides are stable, s2 is *in*
    the primary view so it is no straggler, and only the ``STUCK_POLLS``
    backstop tears it down — after which the majority's next multicast
    finds it silent, removes it, and the rejoin goes through."""
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter)  # event-driven: an idle group exchanges nothing
    binding = bind_scheme(c)
    recovery = RecoveryManager(c.sim, c.net, c.services, "svc")
    c.net.partition({"s2"})
    session = servers[2].group
    # s2 gives up on both peers at once and flushes alone.  Not through
    # on_local_suspicion: that also queues a ViewInstall for the first
    # suspect, which the reliable channel delivers after the heal and which
    # expels it — here the majority must hear nothing at all
    session.detector.suspected.update({"s0", "s1"})
    session.membership._start_flush()
    c.run(0.05)
    c.net.heal()
    recovery.after_heal()
    status = convergence_status(c.services, "svc", c.net)
    assert status["views"] == {"s0": ["s0", "s1", "s2"], "s1": ["s0", "s1", "s2"], "s2": ["s2"]}
    assert status["stragglers"] == []
    quiet = RecoveryManager.STUCK_POLLS * RecoveryManager.POLL_PERIOD
    counter = c.sim.obs.metrics.counter_value
    c.run(quiet - 0.1)
    assert counter("recovery.restarts") == 0  # nothing looked actionable yet
    c.run(0.5)
    assert counter("recovery.restarts") == 1  # the backstop
    fut = binding.invoke("incr", (1,), mode=Mode.ALL, timeout=5.0)
    c.run(10.0)
    assert fut.done and not fut.failed
    assert counter("recovery.converged") == 1
    status = convergence_status(c.services, "svc", c.net)
    assert status["converged"], status
    assert sorted(status["view"]) == ["s0", "s1", "s2"]


# ---------------------------------------------------------------------------
# client-side retry policy
# ---------------------------------------------------------------------------
RETRY = RetryPolicy(max_attempts=6, base_delay=0.1, factor=2.0, max_delay=1.0)


def crash_manager_under_call(retry_policy):
    """Manager crashes right after the call leaves; the call's own timeout
    (0.15 s) is far shorter than rebind, so only retries can save it."""
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(
        c, style=BindingStyle.OPEN, restricted=True, retry_policy=retry_policy
    )
    warm_up(c, binding)
    fut = binding.invoke("incr", (1,), mode=Mode.MAJORITY, timeout=0.15)
    c.sim.schedule(1e-4, c.net.crash, "s0")
    c.run(8.0)
    return c, servers, fut


def test_retry_policy_bridges_manager_crash():
    c, servers, fut = crash_manager_under_call(RETRY)
    assert fut.done and not fut.failed
    assert c.sim.obs.metrics.counter_value("client.retries") >= 1
    assert c.sim.obs.metrics.counter_value("client.timeouts") == 0
    # retried under the same call number: no double execution at survivors
    assert servers[1].servant.value == 2
    assert servers[2].servant.value == 2


def test_without_retry_policy_the_same_call_fails():
    """Seed contrast for the retry satellite: same fault, no policy."""
    c, servers, fut = crash_manager_under_call(None)
    assert fut.failed
    with pytest.raises(CommFailure):
        fut.result()
    assert c.sim.obs.metrics.counter_value("client.timeouts") == 1
    assert c.sim.obs.metrics.counter_value("client.retries") == 0


# ---------------------------------------------------------------------------
# reply-cache eviction (documented miss behaviour)
# ---------------------------------------------------------------------------
def test_reply_cache_eviction_bounds_suppression(monkeypatch):
    """Within capacity a replay is answered from cache; once the entry is
    evicted the member re-executes.  That miss is the documented trade-off:
    the cache bounds memory, so exactly-once holds only within its window
    (safe here because active replicas execute deterministically)."""
    monkeypatch.setattr("repro.core.server.REPLY_CACHE_SIZE", 2)
    c = AppCluster(servers=2, clients=1)
    servers = c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN)

    def traffic():
        for _ in range(4):
            yield binding.invoke("incr", (1,), mode=Mode.ALL)

    run_process(c.sim, traffic(), until=c.sim.now + 4.0)
    assert servers[0].servant.value == 4
    gc = c.client(0).gcs.session(binding.group_name)
    hits_before = c.sim.obs.metrics.counter_value("server.reply_cache_hits")
    # call 4 is still cached: suppressed
    gc.send(InvokeMsg("c0", 4, "incr", (1,), Mode.ALL, False, ""))
    c.run(1.0)
    assert servers[0].servant.value == 4
    assert c.sim.obs.metrics.counter_value("server.reply_cache_hits") > hits_before
    # call 1 was evicted (cache holds 2 entries): re-executed
    gc.send(InvokeMsg("c0", 1, "incr", (1,), Mode.ALL, False, ""))
    c.run(1.0)
    assert servers[0].servant.value == 5


# ---------------------------------------------------------------------------
# sharded: a crash during a scatter must re-resolve the moved shard
# ---------------------------------------------------------------------------
def test_crash_during_scatter_rebinds_to_relayouted_shard():
    """Shard 1's entire membership crashes while a scatter is in flight:
    the survivors' re-layout hands shard 1 to a node that never hosted it,
    and the client must re-resolve the shard's membership (fresh registry
    lookup) rather than retrying the dead incumbents forever."""
    from repro.apps import ShardedKVClient
    from tests.test_shard import keys_for_shard, put_all, serve_all_sharded, sharded_client

    c = AppCluster(servers=4, clients=1)
    servers = serve_all_sharded(c, num_shards=2)
    assert servers[0].assignment == [["s0", "s2"], ["s1", "s3"]]
    kv = ShardedKVClient(sharded_client(c, 2), timeout=25.0)
    shard0_keys = keys_for_shard(0, 2, 2)
    shard1_keys = keys_for_shard(1, 2, 2)
    items = {k: f"v:{k}" for k in shard0_keys + shard1_keys}

    def seed():
        yield put_all(kv, items)

    run_process(c.sim, seed(), until=c.sim.now + 5.0)

    # kill shard 1's whole membership, then scatter *before* the client can
    # observe the failure: the shard-1 half goes to the dead incumbents
    c.net.crash("s1")
    c.net.crash("s3")
    future = kv.mget(list(items))
    c.run(20.0)

    # the survivors re-laid out both shards over {s0, s2}
    assert servers[0].assignment == [["s0"], ["s2"]]
    assert sorted(c.services["s2"].servers["kv"].hosted_shards) == [1]
    # the scatter completed: shard 0's half is intact; shard 1's half came
    # from the re-created incarnation (whole-shard crash loses its state)
    assert future.done and not future.failed, future
    got = future.result()
    assert {k: v for k, v in got.items() if k in shard0_keys} == {
        k: items[k] for k in shard0_keys
    }
    # new shard-1 traffic lands on the re-hosted shard
    def after():
        yield kv.put(shard1_keys[0], "new")
        value = yield kv.get(shard1_keys[0])
        assert value == "new"

    run_process(c.sim, after(), until=c.sim.now + 10.0)
    servant = c.services["s2"].servers["kv"].shard_server(1).servant
    assert servant._data.get(shard1_keys[0]) == "new"


def test_remap_rebuilds_a_broken_sub_binding():
    """When a sub-binding gives up with BindingBroken (every member it
    remembers is gone), the sharded layer discards it and builds a fresh
    one whose lookup re-resolves the shard — bounded, jittered remaps."""
    from repro.apps import ShardedKVClient
    from tests.test_shard import keys_for_shard, serve_all_sharded, sharded_client

    c = AppCluster(servers=4, clients=1)
    serve_all_sharded(c, num_shards=2)
    binding = sharded_client(c, 2)
    kv = ShardedKVClient(binding, timeout=10.0)
    key = keys_for_shard(1, 2, 1)[0]
    stale = binding.binding(1)
    stale.close()  # simulate "every member this sub-binding knew is gone"

    def traffic():
        yield kv.put(key, "v")
        value = yield kv.get(key)
        assert value == "v"

    run_process(c.sim, traffic(), until=c.sim.now + 10.0)
    assert binding.binding(1) is not stale
    assert c.sim.obs.metrics.counter_value("shard.client.remaps") >= 1
