"""Invocation-layer tests: closed/open bindings, modes, failures, g2g."""

import pytest

from repro.core import BindingStyle, GroupBinding, Mode, ReplicationPolicy, SchemeConfig
from repro.errors import ApplicationError, BindingBroken, CommFailure, ConfigurationError
from repro.groupcomm import (
    GroupConfig,
    Liveliness,
    LivelinessConfig,
    Ordering,
    OrderingConfig,
)
from repro.overload import AdmissionConfig
from repro.recovery import RetryPolicy
from repro.sim import run_process
from tests.core_helpers import (
    AppCluster,
    Counter,
    bind_combined_cohort,
    bind_scheme as bound_binding,
    cancelled,
)


LIVELY_FAST = GroupConfig(
    ordering=Ordering.ASYMMETRIC,
    liveliness=Liveliness.LIVELY,
    silence_period=20e-3,
    suspicion_timeout=100e-3,
)


# ---------------------------------------------------------------------------
# closed groups
# ---------------------------------------------------------------------------
def test_closed_wait_all_gets_reply_from_every_server():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter)
    binding = bound_binding(c, style=BindingStyle.CLOSED)

    def proc():
        result = yield binding.invoke("incr", (5,), mode=Mode.ALL)
        return result

    result = run_process(c.sim, proc(), until=c.sim.now + 2.0)
    assert len(result) == 3
    assert set(result.by_member()) == {"s0", "s1", "s2"}
    assert result.values() == [5, 5, 5]


def test_closed_wait_first_and_majority_counts():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter)
    binding = bound_binding(c, style=BindingStyle.CLOSED)

    def proc():
        first = yield binding.invoke("get", (), mode=Mode.FIRST)
        majority = yield binding.invoke("get", (), mode=Mode.MAJORITY)
        return first, majority

    first, majority = run_process(c.sim, proc(), until=c.sim.now + 2.0)
    assert len(first) >= 1
    assert len(majority) >= 2


def test_closed_one_way_executes_everywhere_without_reply():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter)
    binding = bound_binding(c, style=BindingStyle.CLOSED)
    fut = binding.invoke("incr", (1,), mode=Mode.ONE_WAY)
    assert fut.done and fut.result() is None
    c.run(1.0)
    assert [s.servant.value for s in servers] == [1, 1, 1]


def test_closed_active_replicas_stay_consistent_under_two_clients():
    c = AppCluster(servers=3, clients=2)
    servers = c.serve_all("svc", Counter)
    b0 = bound_binding(c, style=BindingStyle.CLOSED)
    b1 = c.client(1).bind("svc", style=BindingStyle.CLOSED)
    c.run(1.0)
    assert b1.ready.done

    def client_proc(binding, n):
        for _ in range(n):
            yield binding.invoke("incr", (1,), mode=Mode.ALL)

    from repro.sim import spawn

    p0 = spawn(c.sim, client_proc(b0, 10))
    p1 = spawn(c.sim, client_proc(b1, 10))
    c.run(5.0)
    assert p0.done and p1.done
    values = [s.servant.value for s in servers]
    assert values == [20, 20, 20]


def test_closed_masks_server_failure():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter, config=LIVELY_FAST)
    binding = bound_binding(
        c, style=BindingStyle.CLOSED, liveliness=Liveliness.LIVELY
    )
    c.net.crash("s2")
    fut = binding.invoke("incr", (1,), mode=Mode.ALL)
    c.run(3.0)
    # the crashed server is removed from the view; ALL = the two survivors
    assert fut.done and not fut.failed
    assert len(fut.result()) == 2
    assert binding.rebinds == 0  # no rebinding needed in closed groups


# ---------------------------------------------------------------------------
# open groups
# ---------------------------------------------------------------------------
def test_open_binding_uses_designated_manager():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter)
    binding = bound_binding(c, style=BindingStyle.OPEN, restricted=True)
    assert binding.manager == "s0"  # restricted: the server group's head

    def proc():
        result = yield binding.invoke("incr", (2,), mode=Mode.ALL)
        return result

    result = run_process(c.sim, proc(), until=c.sim.now + 2.0)
    assert len(result) == 3
    assert result.values() == [2, 2, 2]


def test_open_client_group_has_exactly_two_members():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter)
    binding = bound_binding(c, style=BindingStyle.OPEN)
    gc = c.client(0).gcs.session(binding.group_name)
    assert sorted(gc.view.members) == ["c0", "s0"]


def test_open_wait_first():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter)
    binding = bound_binding(c, style=BindingStyle.OPEN)

    def proc():
        value = yield binding.call("incr", (3,), mode=Mode.FIRST)
        return value

    assert run_process(c.sim, proc(), until=c.sim.now + 2.0) == 3


def test_open_manager_failure_rebinds_and_retries():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter, config=LIVELY_FAST)
    binding = bound_binding(
        c, style=BindingStyle.OPEN, restricted=True, liveliness=Liveliness.LIVELY
    )
    assert binding.manager == "s0"

    def proc():
        yield binding.invoke("incr", (1,), mode=Mode.ALL)

    run_process(c.sim, proc(), until=c.sim.now + 2.0)
    c.net.crash("s0")
    fut = binding.invoke("incr", (1,), mode=Mode.MAJORITY)
    c.run(5.0)
    assert fut.done and not fut.failed
    assert binding.rebinds >= 1
    assert binding.manager in ("s1", "s2")
    # no double execution despite the retry: survivors agree on value 2
    assert [s.servant.value for s in servers[1:]] == [2, 2]


def test_unrestricted_manager_is_some_member():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter)
    binding = bound_binding(c, style=BindingStyle.OPEN, restricted=False)
    assert binding.manager in ("s0", "s1", "s2")


# ---------------------------------------------------------------------------
# optimisations: async forwarding / passive replication
# ---------------------------------------------------------------------------
def test_async_forwarding_wait_first_single_reply():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter, async_forwarding=True)
    binding = bound_binding(c, style=BindingStyle.OPEN, restricted=True)

    def proc():
        result = yield binding.invoke("incr", (1,), mode=Mode.FIRST)
        return result

    result = run_process(c.sim, proc(), until=c.sim.now + 2.0)
    assert len(result) == 1
    assert result.replies[0].member == "s0"
    c.run(1.0)
    # the one-way forward still executed at the other members (active)
    assert [s.servant.value for s in servers] == [1, 1, 1]


def test_passive_replication_primary_executes_backups_track_state():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all(
        "svc", Counter, policy=ReplicationPolicy.PASSIVE, async_forwarding=True
    )
    binding = bound_binding(c, style=BindingStyle.OPEN, restricted=True)

    def proc():
        for _ in range(3):
            yield binding.invoke("incr", (1,), mode=Mode.FIRST)

    run_process(c.sim, proc(), until=c.sim.now + 3.0)
    assert servers[0].is_primary
    c.run(1.0)
    # backups received state updates without executing
    assert [s.servant.value for s in servers] == [3, 3, 3]


def test_passive_failover_preserves_state():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all(
        "svc",
        Counter,
        policy=ReplicationPolicy.PASSIVE,
        async_forwarding=True,
        config=LIVELY_FAST,
    )
    binding = bound_binding(
        c, style=BindingStyle.OPEN, restricted=True, liveliness=Liveliness.LIVELY
    )

    def proc():
        for _ in range(3):
            yield binding.invoke("incr", (1,), mode=Mode.FIRST)

    run_process(c.sim, proc(), until=c.sim.now + 3.0)
    c.net.crash("s0")
    fut = binding.invoke("incr", (1,), mode=Mode.FIRST)
    c.run(5.0)
    assert fut.done and not fut.failed
    assert fut.result().value == 4  # state carried over: 3 + 1
    assert servers[1].is_primary or servers[2].is_primary


# ---------------------------------------------------------------------------
# errors and edge cases
# ---------------------------------------------------------------------------
def test_servant_exception_reaches_client():
    c = AppCluster(servers=2, clients=1)
    c.serve_all("svc", Counter)
    binding = bound_binding(c, style=BindingStyle.OPEN)

    def proc():
        result = yield binding.invoke("fail", (), mode=Mode.FIRST)
        return result

    result = run_process(c.sim, proc(), until=c.sim.now + 2.0)
    assert not result.replies[0].ok
    with pytest.raises(ApplicationError):
        _ = result.value


class CounterWithLimit(Counter):
    limit = 3  # a plain attribute, not an operation


@pytest.mark.parametrize("style", [BindingStyle.CLOSED, BindingStyle.OPEN])
def test_a_replica_refuses_an_operation_the_orb_refuses(style):
    """Replicas dispatch by the ORB's rule: a servant attribute that is not
    callable is no operation, just like a private one.  Every member
    answers ``bad operation``; none tries to call the attribute."""
    c = AppCluster(servers=2, clients=1)
    c.serve_all("svc", CounterWithLimit)
    binding = bound_binding(c, style=style)
    futures = {op: binding.invoke(op, (), mode=Mode.ALL) for op in ("limit", "_private")}
    c.run(2.0)
    for op, fut in futures.items():
        replies = [(r.ok, r.value) for r in fut.result().replies]
        assert replies == [(False, f"bad operation {op!r}")] * 2


def test_bind_to_unknown_service_fails():
    c = AppCluster(servers=1, clients=1)
    binding = c.client(0).bind("nosuch")
    c.run(1.0)
    assert binding.ready.failed


def test_invoke_timeout():
    from repro.errors import CommFailure

    c = AppCluster(servers=2, clients=1)
    c.serve_all("svc", Counter)
    binding = bound_binding(c, style=BindingStyle.OPEN)
    c.net.crash("s0")  # manager dead, event-driven: no detection, no reply
    fut = binding.invoke("get", (), mode=Mode.FIRST, timeout=0.5)
    c.run(2.0)
    assert fut.failed and isinstance(fut.exception, CommFailure)


def test_combined_invoke_timeout_fails_and_cancels_the_rendezvous_slot():
    from repro.errors import CommFailure

    c = AppCluster(servers=2, clients=4)
    c.serve_all("svc", Counter)
    scheme = SchemeConfig("combined_tree", callers=list(c.client_names))
    bindings = bind_combined_cohort(c, scheme)
    c.net.crash("c0")  # the root: nobody issues the group call or fans a reply
    # c2 is a leaf under the root: its contribution goes up and is never answered
    leaf = bindings[2].invoke("incr", (1,), timeout=0.5)
    # c1 is an inner node, still waiting for its child c3 (which never calls)
    inner = bindings[1].invoke("incr", (1,), timeout=0.5)
    slots = bindings[1]._slots
    assert len(slots) == 1
    c.run(2.0)
    for fut in (leaf, inner):
        assert fut.failed and isinstance(fut.exception, CommFailure)
    assert not slots  # cancelled, not left armed for a call nobody waits on
    assert not bindings[1]._pending and not bindings[2]._pending


def test_combined_binding_close_fails_pending_calls_and_leaves():
    """close() at any cohort member: its pending logical calls fail
    ``BindingBroken`` with their timers cancelled; the root also closes the
    underlying binding, which leaves the client/server group."""
    c = AppCluster(servers=2, clients=3)
    c.serve_all("svc", Counter)
    scheme = SchemeConfig("combined_flat", callers=list(c.client_names))
    root, child, _absent = bind_combined_cohort(c, scheme)
    gc_name = root._binding.group_name
    # c2 never contributes: both calls stay pending on it
    waiting = [b.invoke("incr", (1,), timeout=30.0) for b in (root, child)]
    c.run(0.5)
    assert not any(f.done for f in waiting)
    timers = [timer for b in (root, child) for _f, timer in b._pending.values()]
    assert len(timers) == 2
    for binding in (root, child):
        binding.close()
        binding.close()  # idempotent
    for fut in waiting:
        assert fut.failed and isinstance(fut.exception, BindingBroken)
    assert all(cancelled(timer) for timer in timers)
    assert not root._pending and not child._pending
    late = child.invoke("incr", (1,))
    assert late.failed and isinstance(late.exception, BindingBroken)
    c.run(2.0)
    assert c.client(0).gcs.session(gc_name) is None
    assert c.server(0).gcs.session(gc_name) is None


def test_closed_binding_close_releases_servers():
    c = AppCluster(servers=2, clients=1)
    c.serve_all("svc", Counter)
    binding = bound_binding(c, style=BindingStyle.CLOSED)
    gc_name = binding.group_name
    binding.close()
    c.run(2.0)
    # servers noticed the client's departure and left the disbanded group
    assert c.server(0).gcs.session(gc_name) is None
    assert c.server(1).gcs.session(gc_name) is None


def test_joining_server_receives_state_transfer():
    c = AppCluster(servers=3, clients=1)
    # start only two members first
    s0 = c.server(0).serve("svc", Counter())
    c.run(0.3)
    s1 = c.server(1).serve("svc", Counter())
    c.run(0.5)
    binding = bound_binding(c, style=BindingStyle.OPEN)

    def proc():
        for _ in range(4):
            yield binding.invoke("incr", (1,), mode=Mode.ALL)

    run_process(c.sim, proc(), until=c.sim.now + 3.0)
    late = c.server(2).serve("svc", Counter())
    c.run(2.0)
    assert late.ready.done
    assert late.servant.value == 4  # state transferred on join


# ---------------------------------------------------------------------------
# bind(service, style=..., **group_config): the config reaches the group
# ---------------------------------------------------------------------------
def _bind_plain(c, **kwargs):
    servers = c.serve_all("svc", Counter)
    return c.client(0).bind("svc", **kwargs), servers


def _bind_sharded(c, **kwargs):
    sharded = [c.services[n].serve_sharded("svc", Counter, 1) for n in c.server_names]
    c.run(2.0)
    servers = [s.shard_server(0) for s in sharded]
    return c.client(0).bind_sharded("svc", 1, **kwargs).binding(0), servers


def _bind_combined(c, **kwargs):
    servers = c.serve_all("svc", Counter)
    scheme = SchemeConfig("combined_flat", callers=["c0"])
    return c.client(0).bind("svc", scheme=scheme, **kwargs)._binding, servers


BINDERS = pytest.mark.parametrize(
    "binder", [_bind_plain, _bind_sharded, _bind_combined], ids=lambda f: f.__name__
)


@BINDERS
def test_group_keywords_reach_the_client_server_group(binder):
    """Every group-level bind keyword lands, once, on the GroupConfig of the
    client/server group — at the client and at the server that joined it."""
    keywords = dict(
        ordering=Ordering.SYMMETRIC,
        liveliness=Liveliness.LIVELY,
        suspicion_timeout=0.4,
        flush_timeout=0.2,
        liveliness_config=LivelinessConfig(max_silence_factor=4.0),
        ordering_config=OrderingConfig(ticket_batch_max=3),
    )
    c = AppCluster(servers=2, clients=1)
    binding, servers = binder(c, style=BindingStyle.OPEN, **keywords)
    c.run(1.5)
    assert binding.ready.done and not binding.ready.failed
    manager = next(s for s in servers if s.member_id == binding.manager)
    for config in (
        binding._gc.config,
        manager._client_groups[binding.group_name].config,
    ):
        assert config.ordering == Ordering.SYMMETRIC
        assert config.liveliness == Liveliness.LIVELY
        assert config.suspicion_timeout == 0.4
        assert config.flush_timeout == 0.2
        assert config.liveliness_config.max_silence_factor == 4.0
        assert config.ordering_config.ticket_batch_max == 3
        assert config.sequencer_hint == binding.manager


def test_bare_bind_defaults_do_not_drift():
    """The binding's defaults are not GroupConfig's: a client/server group
    is sequencer-ordered (GroupConfig alone defaults to symmetric)."""
    c = AppCluster(servers=2, clients=1)
    c.serve_all("svc", Counter)
    binding = bound_binding(c)
    assert binding.style == BindingStyle.OPEN and binding.restricted
    config = binding._gc.config
    assert config.ordering == Ordering.ASYMMETRIC
    assert config.liveliness == Liveliness.EVENT_DRIVEN
    assert GroupConfig().ordering == Ordering.SYMMETRIC
    defaults = GroupConfig()
    for name in ("suspicion_timeout", "flush_timeout", "send_window"):
        assert getattr(config, name) == getattr(defaults, name)


@BINDERS
@pytest.mark.parametrize(
    "bad",
    [
        {"no_such_option": 1},
        # deleted knobs are gone, not silently ignored
        {"auto_rebind": False},
        {"manager": "s1"},
        {"trace_sample": 0.5},
        {"null_delay": 1e-3},
        {"ack_delay": 10e-3},
    ],
    ids=lambda bad: next(iter(bad)),
)
def test_unknown_bind_keyword_is_a_type_error_at_bind_time(binder, bad):
    c = AppCluster(servers=2, clients=1)
    with pytest.raises(TypeError):
        binder(c, **bad)


def test_bad_combinations_raise_before_any_message_is_sent():
    c = AppCluster(servers=2, clients=1)
    c.serve_all("svc", Counter)
    sent = c.sim.obs.metrics.counter("net.sent")
    before, queued = sent.value, c.sim.pending_count()
    client = c.client(0)
    with pytest.raises(ConfigurationError):  # c0 is not in the cohort
        client.bind("svc", scheme=SchemeConfig("combined_flat", callers=["c1", "c2"]))
    with pytest.raises(ConfigurationError):  # a cohort binds through bind()
        client.bind_group_to_group(
            "gx", ["c0"], "svc", scheme=SchemeConfig("combined_flat", callers=["c0"])
        )
    with pytest.raises(ValueError):
        client.bind("svc", style="ajar")
    with pytest.raises(ValueError):
        client.bind("svc", ordering="alphabetical")
    with pytest.raises(ValueError):
        client.bind("svc", send_window=0)
    assert (sent.value, c.sim.pending_count()) == (before, queued)


def test_a_scheme_binding_refuses_an_explicit_mode():
    """The reply scheme fixes the mode at bind.  A ``forward`` call sent
    ``one_way`` used to forward ``ok=True`` for a call nobody had answered
    (both servers were dead); now naming a mode raises before any message."""
    c = AppCluster(servers=2, clients=2)
    c.serve_all("svc", Counter)
    binding = bound_binding(c, scheme=SchemeConfig(reply="forward", forward_to="c1"))
    for server in c.server_names:
        c.net.crash(server)
    sent = c.sim.obs.metrics.counter("net.sent")
    before = (sent.value, c.sim.pending_count())
    with pytest.raises(ConfigurationError):
        binding.invoke("incr", (1,), mode=Mode.ONE_WAY)
    assert (sent.value, c.sim.pending_count()) == before
    c.run(1.0)
    assert c.services["c1"].forwarded == []


@pytest.mark.parametrize("reply", ["return_one", "combine", "forward"])
def test_a_scheme_call_allocates_one_future(monkeypatch, reply):
    """The reply scheme settles the call's own future: no outer future."""
    import repro.core.client as client_module

    made = []

    class CountingFuture(client_module.Future):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    c = AppCluster(servers=2, clients=2)
    c.serve_all("svc", Counter)
    kwargs = {"reducer": "max"} if reply == "combine" else {}
    if reply == "forward":
        kwargs["forward_to"] = "c1"
    binding = bound_binding(c, scheme=SchemeConfig(reply=reply, **kwargs))
    monkeypatch.setattr(client_module, "Future", CountingFuture)
    fut = binding.invoke("incr", (1,))
    c.run(1.0)
    assert made == [fut]
    assert fut.result() == (None if reply == "forward" else 1)


def test_admission_is_released_once_per_call_closed_mid_rebind():
    """Closing mid-rebind fails calls that are both pending and queued for
    the new group: each frees its admission slot exactly once."""
    c = AppCluster(servers=2, clients=1)
    c.serve_all("svc", Counter, config=LIVELY_FAST)
    binding = bound_binding(
        c, fast=True, admission=AdmissionConfig(max_inflight=8)
    )
    c.net.crash(binding.manager)
    calls = [binding.invoke("incr", (1,), mode=Mode.ALL) for _ in range(3)]
    for _ in range(400):  # until the rebind has re-queued the outstanding calls
        c.run(0.005)
        if binding._queued and not binding._bound:
            break
    assert binding._queued and not binding._bound
    assert set(binding._pending.values()) & set(binding._queued)
    assert binding.admission.inflight == len(calls)
    binding.close()
    assert binding.admission.inflight == 0
    assert all(f.failed and isinstance(f.exception, BindingBroken) for f in calls)


# ---------------------------------------------------------------------------
# group-to-group
# ---------------------------------------------------------------------------
def test_group_to_group_invocation():
    c = AppCluster(servers=3, clients=2)
    servers = c.serve_all("svc", Counter)
    # gx = {c0, c1}: a peer group of clients
    gx0 = c.client(0).create_peer_group("gx")
    gx1 = c.client(1).join_peer_group("gx", "c0")
    c.run(1.0)
    b0 = c.client(0).bind_group_to_group("gx", ["c0", "c1"], "svc")
    b1 = c.client(1).bind_group_to_group("gx", ["c0", "c1"], "svc")
    c.run(1.0)
    assert b0.ready.done and b1.ready.done

    fut0 = b0.invoke("incr", (1,), mode=Mode.ALL)
    fut1 = b1.invoke("incr", (1,), mode=Mode.ALL)
    c.run(2.0)
    assert fut0.done and fut1.done
    r0, r1 = fut0.result(), fut1.result()
    # both gx members got the full reply set, atomically
    assert len(r0) == 3 and len(r1) == 3
    # the manager filtered duplicates: the call executed exactly once
    assert [s.servant.value for s in servers] == [1, 1, 1]


def test_group_to_group_duplicate_filter_is_bounded(monkeypatch):
    """``_g2g_seen`` is capped like the other duplicate-suppression caches
    (it used to grow by one entry per group-to-group call, forever)."""
    import repro.core.server as server_module

    size, extra = 8, 3
    monkeypatch.setattr(server_module, "REPLY_CACHE_SIZE", size)
    c = AppCluster(servers=2, clients=2)
    servers = c.serve_all("svc", Counter)
    c.client(0).create_peer_group("gx")
    c.client(1).join_peer_group("gx", "c0")
    c.run(1.0)
    b0 = c.client(0).bind_group_to_group("gx", ["c0", "c1"], "svc")
    b1 = c.client(1).bind_group_to_group("gx", ["c0", "c1"], "svc")
    c.run(1.0)
    for _ in range(size + extra):
        futures = [b.invoke("incr", (1,), mode=Mode.ALL) for b in (b0, b1)]
        c.run(0.5)
        assert all(f.done and not f.failed for f in futures)
    manager = next(s for s in servers if s.member_id == b0.manager)
    assert len(manager._g2g_seen) == size
    assert len(manager._reply_cache) == size
    assert all(len(s._own_replies) == size for s in servers)
    # the filter still worked for every call: each ran once per replica
    assert [s.servant.value for s in servers] == [size + extra] * 2


def test_group_to_group_one_way():
    c = AppCluster(servers=2, clients=2)
    servers = c.serve_all("svc", Counter)
    c.client(0).create_peer_group("gx")
    c.client(1).join_peer_group("gx", "c0")
    c.run(1.0)
    b0 = c.client(0).bind_group_to_group("gx", ["c0", "c1"], "svc")
    b1 = c.client(1).bind_group_to_group("gx", ["c0", "c1"], "svc")
    c.run(1.0)
    b0.invoke("incr", (5,), mode=Mode.ONE_WAY)
    b1.invoke("incr", (5,), mode=Mode.ONE_WAY)
    c.run(2.0)
    assert [s.servant.value for s in servers] == [5, 5]


# -- a g2g call ends: manager loss, timeout, shed (one lifecycle with bind()) --
def g2g_pair(c, **bind_kwargs):
    """gx = {c0, c1}, both bound to "svc" through the shared monitor group."""
    c.client(0).create_peer_group("gx")
    c.client(1).join_peer_group("gx", "c0")
    c.run(1.0)
    bindings = [
        c.client(i).bind_group_to_group("gx", ["c0", "c1"], "svc", **bind_kwargs)
        for i in (0, 1)
    ]
    c.run(1.0)
    assert all(b.ready.done and not b.ready.failed for b in bindings)
    return bindings


def test_group_to_group_manager_crash_fails_calls_instead_of_hanging():
    """gz re-forms without its manager; every gx member's outstanding call
    and every later one fail ``BindingBroken`` (they used to stay pending
    for ever: the binding had no view handler and no timeout to pass)."""
    c = AppCluster(servers=3, clients=2)
    c.serve_all("svc", Counter)
    b0, b1 = g2g_pair(
        c,
        liveliness=Liveliness.LIVELY,
        suspicion_timeout=100e-3,
        # static time-silence: an idle gz must not have stretched its deadlines
        liveliness_config=LivelinessConfig(adaptive=False),
    )
    c.net.crash(b0.manager)
    futures = [b.invoke("incr", (1,)) for b in (b0, b1)]
    c.run(b0.config.suspicion_timeout + 2 * b0.config.flush_timeout)
    for fut in futures:
        assert fut.failed and isinstance(fut.exception, BindingBroken)
    late = b1.invoke("incr", (1,))
    assert late.failed and isinstance(late.exception, BindingBroken)
    assert not b0._pending and not b1._pending
    c.run(60.0)  # and nothing is left polling or retrying
    assert c.sim.obs.metrics.counter_value("client.rebinds") == 0


def test_group_to_group_bind_to_a_dead_manager_fails_and_leaves_nothing_scheduled(
    monkeypatch,
):
    """A gz bind whose designated manager (gy's first member) is dead:
    every gx member hears its own ask to the manager time out, so both
    ``ready`` futures fail ``BindingBroken`` after the 2 s join timeout.
    Then the bindings schedule nothing (they used to re-poll for the view
    every millisecond, for ever, with ``ready`` pending)."""
    c = AppCluster(servers=3, clients=2)
    c.serve_all("svc", Counter)
    c.client(0).create_peer_group("gx")
    c.client(1).join_peer_group("gx", "c0")
    c.run(1.0)
    binding_events = []
    real_schedule_at = c.sim.schedule_at

    def schedule_at(time, fn, *args):
        if isinstance(getattr(fn, "__self__", None), GroupBinding):
            binding_events.append((time, fn.__name__))
        return real_schedule_at(time, fn, *args)

    monkeypatch.setattr(c.sim, "schedule_at", schedule_at)
    c.net.crash("s0")  # still advertised first: the designated manager
    bound_at = c.sim.now
    bindings = [
        c.client(i).bind_group_to_group("gx", ["c0", "c1"], "svc") for i in (0, 1)
    ]
    failed_at = []
    for binding in bindings:
        binding.ready.add_done_callback(lambda _f: failed_at.append(c.sim.now))
    c.run(60.0)
    assert all(b.manager == "s0" for b in bindings)
    for binding in bindings:
        assert binding.ready.failed
        assert isinstance(binding.ready.exception, BindingBroken)
    # the join timeout plus the registry lookup's round trip on the LAN
    assert len(failed_at) == 2
    assert all(bound_at + 2.0 < t < bound_at + 2.0 + 5e-3 for t in failed_at)
    assert [e for e in binding_events if e[0] > bound_at + 3.0] == []


def test_group_to_group_invoke_takes_a_timeout():
    """``invoke(timeout=)`` is GroupBinding's, inherited: a call the
    partitioned manager never answers fails ``CommFailure`` on time."""
    c = AppCluster(servers=3, clients=2)
    c.serve_all("svc", Counter)
    b0, b1 = g2g_pair(c, suspicion_timeout=5.0)  # no view change in the way
    c.net.partition({b0.manager})
    issued = c.sim.now
    failed_at = []
    futures = [b.invoke("incr", (1,), timeout=0.5) for b in (b0, b1)]
    for fut in futures:
        fut.add_done_callback(lambda _f: failed_at.append(c.sim.now))
    c.run(1.0)
    assert failed_at == [pytest.approx(issued + 0.5)] * 2
    assert all(isinstance(f.exception, CommFailure) for f in futures)
    assert c.sim.obs.metrics.counter_value("client.timeouts") == 2


def test_group_to_group_shed_call_is_retried_and_runs_exactly_once():
    """A manager-side ShedReply is one multicast in gz: every gx member
    backs off and retries under the same call number, and the manager
    forwards one copy of the retry round as it did of the first."""
    c = AppCluster(servers=3, clients=2)
    servers = c.serve_all(
        "svc", Counter, admission=AdmissionConfig(max_inflight=1)
    )
    bindings = g2g_pair(
        c, retry_policy=RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=0.5)
    )
    # two calls back to back: the second finds the one inflight slot taken
    futures = [b.invoke("incr", (1,), timeout=8.0) for _ in range(2) for b in bindings]
    c.run(10.0)
    assert all(f.done and not f.failed for f in futures)
    counter = c.sim.obs.metrics.counter_value
    assert counter("overload.shed") >= 1
    assert counter("overload.retry_after_honored") >= 2  # both members, same ShedReply
    assert [s.servant.value for s in servers] == [2, 2, 2]
    assert counter("server.requests_executed") == 6
