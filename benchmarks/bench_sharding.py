#!/usr/bin/env python
"""Sharding scale-out: aggregate kvstore throughput vs shard count.

The flat replicated kvstore funnels every write through one sequencer, so
its throughput ceiling is one node's CPU no matter how many replicas the
group has.  Sharded subgroups (``repro.shard``) split the same membership
into N shards, each with its own sequencer and ordering sessions; the
key-routed client touches only the owning shard per call.  Aggregate
throughput should therefore scale with the shard count until some other
resource saturates.

It scales *super*linearly here — 31x from 1 to 4 shards — because the
membership is fixed, so more shards also means smaller shards: the 31x is
4 sequencers x ~7.6x less work per put.  Every replica multicasts its reply
inside its shard group (§4.1 iii, ``ObjectGroupServer._multicast_executed``),
so a forwarded put costs m^2 reply deliveries and m request deliveries in a
shard of m members, on top of a near-constant client/server-group share:
group deliveries per put (``gc_delivered / completed``) fall 81.9 -> 26.0 ->
10.8 as members per shard go 8 -> 4 -> 2.  That is the paper's reply path at
fixed total membership, not a protocol pathology.

This benchmark fixes the total membership (8 members on one LAN)
and sweeps the shard count 1 -> 2 -> 4 under a saturating closed-loop
single-key put workload (the key pool is balanced across shards for every
layout, so the comparison isolates ordering parallelism).  Two gates:

- **Scaling bars** (deterministic): aggregate delivered ops/sec must be
  strictly monotonic in the shard count, and the 4-shard point must be at
  least ``SCALE_FLOOR`` (1.5x) the 1-shard ceiling.
- **Behaviour** (deterministic): per-configuration completed-op and
  ``gc.delivered`` counts, window, rate and mean latency must exactly match
  the ``sharding`` section of ``benchmarks/gates.json`` under ``--check``
  (see repro.bench.gate) — virtual time makes the whole sweep
  reproducible, so any drift means the protocol changed.

Without ``--check`` the section is rewritten.
"""

from __future__ import annotations

import sys
import time
import zlib

from repro.apps.sharded_kvstore import ShardedKVClient, ShardKVServant
from repro.bench import gate
from repro.bench.env import Environment
from repro.bench.report import emit, format_table
from repro.bench.workloads import ClosedLoopClient, run_until_done
from repro.core.modes import Mode
from repro.groupcomm.config import GroupConfig, Liveliness, Ordering

SECTION = "sharding"
WORKLOAD = {
    "topology": "lan",
    "members": 8,
    "clients": 4,  # client nodes
    "workers": 4,  # writers per client
    "requests": 60,  # timed puts per writer
    "warmup": 5,  # untimed puts per writer
    "keys": 64,  # key pool size
    "seed": 42,
}
EXACT = ("completed", "gc_delivered", "window_s", "ops_per_sec", "mean_latency_ms")

SHARD_COUNTS = (1, 2, 4)
SCALE_FLOOR = 1.5  # 4 shards must beat the 1-shard ceiling by this factor


def build_key_pool(size: int) -> list:
    """``size`` keys with equal counts per crc32%4 class, interleaved.

    Every swept layout (1, 2 or 4 round-robin shards) then sees balanced
    per-shard load, so throughput differences isolate ordering parallelism
    rather than key skew.
    """
    per_class = size // 4
    classes = {0: [], 1: [], 2: [], 3: []}
    index = 0
    while any(len(keys) < per_class for keys in classes.values()):
        key = f"k{index}"
        index += 1
        bucket = classes[zlib.crc32(key.encode()) % 4]
        if len(bucket) < per_class:
            bucket.append(key)
    return [classes[c][i] for i in range(per_class) for c in range(4)]


def run_config(num_shards: int) -> dict:
    env = Environment(config=WORKLOAD["topology"], seed=WORKLOAD["seed"])
    config = GroupConfig(
        ordering=Ordering.ASYMMETRIC,
        liveliness=Liveliness.EVENT_DRIVEN,
        sequencer_hint="s0",
        suspicion_timeout=10.0,
        flush_timeout=5.0,
    )
    env.serve_replicas(
        "kv", ShardKVServant, WORKLOAD["members"], shards=num_shards, settle=1.0,
        config=config,
    )

    def bind(service):
        binding = service.bind_sharded(
            "kv", num_shards, suspicion_timeout=10.0, flush_timeout=5.0
        )
        return ShardedKVClient(binding, mode=Mode.FIRST, timeout=60.0)

    kvs = env.bind_clients(WORKLOAD["clients"], bind, settle=1.5)

    keys = build_key_pool(WORKLOAD["keys"])
    total_workers = WORKLOAD["clients"] * WORKLOAD["workers"]

    def putter(w: int) -> ClosedLoopClient:
        """Closed-loop single-key writer ``w``, striding through the pool."""
        kv = kvs[w % len(kvs)]
        return ClosedLoopClient(
            env.sim,
            issue=lambda i: kv.put(keys[(w + i * total_workers) % len(keys)], i),
            requests=WORKLOAD["requests"],
            warmup=WORKLOAD["warmup"],
            name=f"putter:{w}",
        )

    workers = [putter(w) for w in range(total_workers)]
    wall_start = time.process_time()
    run_until_done(env.sim, [w.done for w in workers], deadline=env.sim.now + 600.0)
    cpu_s = time.process_time() - wall_start

    completed = sum(len(w.latencies.values) for w in workers)
    window_start = min(w.first_timed_start for w in workers)
    window_end = max(w.last_completion for w in workers)
    window = window_end - window_start
    mean_latency = sum(w.latency_sum for w in workers) / max(completed, 1)
    return {
        "completed": completed,
        "gc_delivered": env.sim.obs.metrics.counter_value("gc.delivered"),
        "window_s": round(window, 6),
        "ops_per_sec": round(completed / window, 2),
        "mean_latency_ms": round(mean_latency * 1e3, 3),
        "cpu_s": round(cpu_s, 3),
    }


def measure() -> dict:
    return {num_shards: run_config(num_shards) for num_shards in SHARD_COUNTS}


def scaling_failures(results) -> list:
    """The scaling bars; deterministic, enforced in every mode."""
    failures = []
    rates = {n: results[n]["ops_per_sec"] for n in SHARD_COUNTS}
    for lo, hi in zip(SHARD_COUNTS, SHARD_COUNTS[1:]):
        if not rates[hi] > rates[lo]:
            failures.append(
                f"throughput not monotonic: {hi} shards {rates[hi]:.1f} ops/s "
                f"<= {lo} shards {rates[lo]:.1f} ops/s"
            )
    ratio = rates[SHARD_COUNTS[-1]] / rates[SHARD_COUNTS[0]]
    if ratio < SCALE_FLOOR:
        failures.append(
            f"{SHARD_COUNTS[-1]}-shard speedup {ratio:.2f}x below the "
            f"{SCALE_FLOOR}x floor over the 1-shard ceiling"
        )
    return failures


def report(results) -> None:
    base_rate = results[SHARD_COUNTS[0]]["ops_per_sec"]
    rows = [
        [
            num_shards,
            result["completed"],
            result["gc_delivered"],
            result["ops_per_sec"],
            f"{result['ops_per_sec'] / base_rate:.2f}x",
            result["mean_latency_ms"],
            result["cpu_s"],
        ]
        for num_shards, result in results.items()
    ]
    emit(
        format_table(
            ["shards", "ops", "gc.delivered", "ops/sec", "speedup",
             "mean lat (ms)", "cpu (s)"],
            rows,
            title=(
                "Sharding scale-out: {members} members, "
                "{clients} clients x {workers} closed-loop writers "
                "x {requests} puts ({topology}, seed {seed})".format(**WORKLOAD)
            ),
        )
    )


if __name__ == "__main__":
    sys.exit(gate.main(__doc__, SECTION, WORKLOAD, measure, report,
                       exact=EXACT, predicates=[scaling_failures]))
