"""Failure injection across the whole stack: crashes, partitions, retries."""

import pytest

from repro.apps import RandomNumberServant
from repro.core import BindingStyle, Mode, ReplicationPolicy
from repro.groupcomm import GroupConfig, Liveliness, Ordering
from repro.sim import run_process, spawn
from tests.core_helpers import AppCluster, Counter, bind_scheme

FAST = GroupConfig(
    ordering=Ordering.ASYMMETRIC,
    liveliness=Liveliness.LIVELY,
    silence_period=20e-3,
    suspicion_timeout=100e-3,
)


def fast_binding(cluster, **kwargs):
    return bind_scheme(cluster, fast=True, **kwargs)


def test_two_crashes_leave_single_working_server():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN, restricted=True)

    def warm():
        yield binding.invoke("incr", (1,), mode=Mode.ALL)

    run_process(c.sim, warm(), until=c.sim.now + 3.0)
    c.net.crash("s0")
    c.run(2.0)
    c.net.crash("s1")
    fut = binding.invoke("incr", (1,), mode=Mode.ALL)
    c.run(5.0)
    assert fut.done and not fut.failed
    assert len(fut.result()) == 1  # "all" of the single survivor
    assert binding.manager == "s2"
    assert servers[2].servant.value == 2


def test_manager_crash_with_outstanding_calls_retries_them():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN, restricted=True)

    def warm():
        yield binding.invoke("incr", (1,), mode=Mode.ALL)

    run_process(c.sim, warm(), until=c.sim.now + 3.0)
    # issue a call and kill the manager before it can answer
    fut = binding.invoke("incr", (1,), mode=Mode.MAJORITY)
    c.sim.schedule(1e-4, c.net.crash, "s0")
    c.run(5.0)
    assert fut.done and not fut.failed
    # retried under the same call number: no double execution at survivors
    assert servers[1].servant.value == 2
    assert servers[2].servant.value == 2


def test_duplicate_calls_suppressed_by_reply_cache():
    """Replaying an InvokeMsg (as a retry would) must not re-execute."""
    from repro.core.messages import InvokeMsg

    c = AppCluster(servers=2, clients=1)
    servers = c.serve_all("svc", Counter)
    binding = fast_binding(c, style=BindingStyle.OPEN)

    def scenario():
        yield binding.invoke("incr", (1,), mode=Mode.ALL)

    run_process(c.sim, scenario(), until=c.sim.now + 3.0)
    gc = c.client(0).gcs.session(binding.group_name)
    # replay the same call number manually
    replay = InvokeMsg("c0", 1, "incr", (1,), Mode.ALL, False, "")
    gc.send(replay)
    c.run(2.0)
    assert servers[0].servant.value == 1  # not 2: cache replied instead


def test_partition_isolates_client_then_recovery_by_rebind():
    c = AppCluster(servers=3, clients=1)
    c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.OPEN, restricted=True)

    def warm():
        yield binding.invoke("incr", (1,), mode=Mode.ALL)

    run_process(c.sim, warm(), until=c.sim.now + 3.0)
    # cut the client (and registry stays with the servers)
    c.net.partition({"c0"})
    fut = binding.invoke("get", (), mode=Mode.FIRST, timeout=0.5)
    c.run(2.0)
    assert fut.failed  # unreachable while partitioned
    c.net.heal()
    c.run(3.0)
    fut2 = binding.invoke("get", (), mode=Mode.FIRST, timeout=5.0)
    c.run(5.0)
    assert fut2.done and not fut2.failed


def test_active_replicas_identical_after_crash_and_traffic():
    """Random-number replicas return identical streams across a crash."""
    c = AppCluster(servers=3, clients=2)
    servers = c.serve_all("svc", RandomNumberServant, config=FAST)
    b0 = fast_binding(c, style=BindingStyle.CLOSED)
    b1 = c.client(1).bind(
        "svc", style=BindingStyle.CLOSED,
        liveliness=Liveliness.LIVELY, suspicion_timeout=100e-3,
    )
    c.run(1.0)
    assert b1.ready.done

    def client_proc(binding, n):
        values = []
        for _ in range(n):
            result = yield binding.invoke("draw", (), mode=Mode.ALL)
            values.append(set(result.values()))
        return values

    p0 = spawn(c.sim, client_proc(b0, 5))
    p1 = spawn(c.sim, client_proc(b1, 5))
    c.run(5.0)
    c.net.crash("s2")
    p2 = spawn(c.sim, client_proc(b0, 5))
    c.run(5.0)
    assert p0.done and p1.done and p2.done
    # every request got a single agreed value from all live replicas
    for values in (p0.result(), p1.result(), p2.result()):
        assert all(len(v) == 1 for v in values)
    # and the survivors' generators stayed in lock step
    assert servers[0].servant.get_state() == servers[1].servant.get_state()


def test_passive_double_failover():
    c = AppCluster(servers=3, clients=1)
    servers = c.serve_all(
        "svc", Counter,
        policy=ReplicationPolicy.PASSIVE, async_forwarding=True, config=FAST,
    )
    binding = fast_binding(c, style=BindingStyle.OPEN, restricted=True)

    def step(expected):
        def proc():
            result = yield binding.invoke("incr", (1,), mode=Mode.FIRST, timeout=8.0)
            assert result.value == expected, (result.value, expected)
        return proc

    run_process(c.sim, step(1)(), until=c.sim.now + 5.0)
    c.net.crash("s0")
    c.run(1.0)
    run_process(c.sim, step(2)(), until=c.sim.now + 8.0)
    c.net.crash("s1")
    c.run(1.0)
    run_process(c.sim, step(3)(), until=c.sim.now + 8.0)
    assert servers[2].servant.value == 3
    assert binding.rebinds >= 2


def test_crashed_client_group_is_garbage_collected_at_servers():
    c = AppCluster(servers=2, clients=1)
    c.serve_all("svc", Counter, config=FAST)
    binding = fast_binding(c, style=BindingStyle.CLOSED)
    gc_name = binding.group_name

    def warm():
        yield binding.invoke("incr", (1,), mode=Mode.ALL)

    run_process(c.sim, warm(), until=c.sim.now + 3.0)
    c.net.crash("c0")
    c.run(3.0)
    # servers suspected the dead client and dissolved the client/server group
    assert c.server(0).gcs.session(gc_name) is None
    assert c.server(1).gcs.session(gc_name) is None


def test_determinism_same_seed_same_history():
    """Two identical runs produce byte-identical measurements."""
    from repro.bench import request_reply_point

    a = request_reply_point("mixed", 2, replicas=2, style=BindingStyle.OPEN,
                            mode=Mode.FIRST, requests=10, seed=77)
    b = request_reply_point("mixed", 2, replicas=2, style=BindingStyle.OPEN,
                            mode=Mode.FIRST, requests=10, seed=77)
    assert a.latency_ms == b.latency_ms
    assert a.throughput == b.throughput
