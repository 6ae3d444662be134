"""Per-layer attribution: fold a cProfile run and a metrics window by layer.

Two sources, both read from outside ``src/``:

- ``fold_profile`` charges every profiled function's *self* time and call
  count to the layer that owns its source file.  Frames that belong to no
  layer (builtins, C extensions, the standard library) are charged to the
  layer that called them, through cProfile's caller/callee table, so
  ``dict.get`` under the ordering protocol counts as ordering work.
- ``Window`` brackets the timed region and turns the public metrics
  snapshot, ``Node.busy_time`` and ``sim.events_processed`` into per-op
  counts for each layer.

cProfile inflates cheap Python calls relative to C work, so traced self
times rank layers and show where a change landed; speed claims use the
untraced ``host_cpu_us_per_op``.
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction
from typing import Dict, Iterable, List, Optional

from repro.obs import Histogram

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

_GC_FILES = {
    "channel": "gc.channel",
    "session": "gc.session",
    "ordering": "gc.ordering",
    "ticketbatch": "gc.ordering",
    "lamport": "gc.ordering",
    "vectorclock": "gc.ordering",
    "membership": "gc.membership",
    "failuredetector": "gc.membership",
    "views": "gc.membership",
    "merger": "gc.membership",
    "flowcontrol": "gc.flow",
}

_PACKAGES = {
    "sim": "sim",
    "net": "net",
    "orb": "orb",
    "core": "core",
    "shard": "shard",
    "overload": "overload",
    "recovery": "recovery",
    "obs": "obs",
    "apps": "apps",
}

LAYERS = (
    "sim",
    "net",
    "orb",
    "orb.marshal",
    "gc.channel",
    "gc.session",
    "gc.ordering",
    "gc.membership",
    "gc.flow",
    "gc.service",
    "core",
    "shard",
    "overload",
    "recovery",
    "obs",
    "apps",
    "harness",
)

#: how deep a chain of layerless frames (stdlib calling builtins calling …)
#: is followed before the remainder is left unattributed
_MAX_DEPTH = 6


@functools.lru_cache(maxsize=None)
def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; None for builtins and the stdlib."""
    if filename.startswith(BENCH_DIR):
        return "harness"
    marker = f"{os.sep}repro{os.sep}"
    at = filename.rfind(marker)
    if at < 0:
        return None
    parts = filename[at + len(marker):].split(os.sep)
    package, module = parts[0], parts[-1][:-3]
    if package == "groupcomm":
        return _GC_FILES.get(module, "gc.service")
    if package == "orb" and module == "marshal":
        return "orb.marshal"
    # scenario + bench drive the run; errors.py and the package root ride along
    return _PACKAGES.get(package, "harness")


def _code_layer(code) -> Optional[str]:
    return None if isinstance(code, str) else layer_of(code.co_filename)


def fold_profile(stats: Iterable) -> Dict:
    """Fold ``cProfile.Profile.getstats()`` into per-layer self time/calls.

    Returns ``{"layers": {layer: {"self_s", "calls"}}, "total_s",
    "total_calls", "unattributed_s", "marshal_encodes", "marshal_decodes"}``.
    """
    stats = list(stats)
    by_code = {entry.code: entry for entry in stats}
    # call counts are exact: shares of a layerless callee stay rational
    layers = {name: {"self_s": 0.0, "calls": Fraction(0)} for name in LAYERS}

    def charge(bucket: Dict, callee, weight: Fraction, depth: int) -> None:
        bucket["self_s"] += callee.inlinetime * float(weight)
        bucket["calls"] += callee.callcount * weight
        entry = by_code.get(callee.code)
        if entry is None or not entry.calls or depth >= _MAX_DEPTH:
            return
        # this caller's share of the callee's own layerless callees
        share = weight * callee.callcount / entry.callcount
        for inner in entry.calls:
            if _code_layer(inner.code) is None:
                charge(bucket, inner, share, depth + 1)

    total_s, total_calls = 0.0, 0
    encodes = decodes = 0
    for entry in stats:
        total_s += entry.inlinetime
        total_calls += entry.callcount
        layer = _code_layer(entry.code)
        if layer is None:
            continue
        bucket = layers[layer]
        bucket["self_s"] += entry.inlinetime
        bucket["calls"] += entry.callcount
        if layer == "orb.marshal":
            if entry.code.co_name == "encode":
                encodes = entry.callcount
            elif entry.code.co_name == "decode":
                decodes = entry.callcount
        for callee in entry.calls or ():
            if _code_layer(callee.code) is None:
                charge(bucket, callee, Fraction(1), 1)
    for bucket in layers.values():
        bucket["calls"] = float(bucket["calls"])
    attributed = sum(bucket["self_s"] for bucket in layers.values())
    return {
        "layers": layers,
        "total_s": total_s,
        "total_calls": total_calls,
        "unattributed_s": total_s - attributed,
        "marshal_encodes": encodes,
        "marshal_decodes": decodes,
    }


CPU_QUEUE = "node.cpu_queue_delay"


class Window:
    """Counts over the timed region only: open at traffic start, close at
    the last completion, read per-op layer counts from the difference."""

    def __init__(self, env):
        self.env = env
        self.metrics = env.sim.obs.metrics
        self.before = env.sim.obs.metrics_snapshot()
        self.events = env.sim.events_processed
        self.busy = {name: node.busy_time for name, node in env.net.nodes.items()}
        self.queue_buckets = dict(self.metrics.histogram(CPU_QUEUE).buckets)
        self.start = env.sim.now

    def close(self, ops: int) -> Dict[str, float]:
        """Per-layer count metrics for a window that completed ``ops`` ops."""
        env = self.env
        elapsed = env.sim.now - self.start
        delta = self.metrics.diff(self.before)
        counters, histograms = delta["counters"], delta["histograms"]
        ops = max(ops, 1)

        def count(name: str) -> float:
            return float(counters.get(name, 0))

        def per_op(name: str) -> float:
            return count(name) / ops

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        def mean_vms(name: str) -> float:
            return histograms.get(name, {"mean": 0.0})["mean"] * 1e3

        busiest = max(
            (node.busy_time - self.busy.get(name, 0.0))
            for name, node in env.net.nodes.items()
        )
        frames = count("net.sent")
        return {
            "sim.events_per_op": (env.sim.events_processed - self.events) / ops,
            "net.msgs_per_op": frames / ops,
            "net.bytes_per_op": per_op("net.bytes_sent"),
            "net.cpu_util_max": ratio(busiest, elapsed),
            "net.cpu_queue_p99_vms": self._queue_p99() * 1e3,
            "net.dropped": count("net.dropped"),
            "orb.hops_per_op": per_op("net.hops.orb"),
            "gc.delivered_per_op": per_op("gc.delivered"),
            "gc.data_per_op": per_op("gc.sent.data"),
            "gc.ticket_per_op": per_op("gc.sent.ticket"),
            "gc.null_per_op": per_op("gc.sent.null"),
            "gc.control_per_op": per_op("gc.sent.control"),
            "gc.channel.retransmits": count("gc.channel.retransmissions"),
            "gc.channel.ack_piggyback_ratio": ratio(
                count("gc.channel.acks_piggybacked"), frames
            ),
            "gc.ordering.tickets_batched_ratio": ratio(
                count("gc.tickets_batched"), count("gc.sent.ticket")
            ),
            "gc.membership.views": count("gc.views_installed"),
            "gc.membership.flushes": count("gc.membership.flushes_completed"),
            "gc.membership.suspicions": count("gc.membership.suspicions"),
            "core.phase_queue_vms": mean_vms("inv.phase.queue"),
            "core.phase_order_vms": mean_vms("inv.phase.order"),
            "core.phase_execute_vms": mean_vms("inv.phase.execute"),
            "core.phase_reply_vms": mean_vms("inv.phase.reply"),
            "core.phase_flush_vms": mean_vms("inv.phase.flush"),
            "core.exec_per_op": per_op("server.requests_executed"),
            "core.retries_per_op": per_op("client.retries"),
            "core.rebinds": count("client.rebinds"),
            "core.timeouts": count("client.timeouts"),
            "core.dup_suppressed": count("server.duplicates_suppressed"),
            "shard.scatters_per_op": per_op("shard.client.scatters"),
            "shard.layout_recomputes": count("shard.layout.recomputes"),
            "overload.shed_ratio": ratio(
                count("overload.shed"), count("overload.shed") + count("overload.admitted")
            ),
            "overload.retry_after_honored": count("overload.retry_after_honored"),
            "recovery.time_vms": mean_vms("recovery.time"),
        }

    def _queue_p99(self) -> float:
        """p99 CPU queueing delay over the window: the cumulative histogram
        minus the buckets filled during set-up."""
        total = self.metrics.histogram(CPU_QUEUE)
        window = Histogram("window")
        for index, seen in total.buckets.items():
            added = seen - self.queue_buckets.get(index, 0)
            if added:
                window.buckets[index] = added
                window.count += added
        window.min, window.max = 0.0, total.max or 0.0
        return window.percentile(0.99)


def layer_metrics(fold: Dict, ops: int) -> Dict[str, float]:
    """``<layer>.self_us_per_op`` and ``<layer>.pycalls_per_op`` from a fold."""
    ops = max(ops, 1)
    out = {}
    for layer, bucket in fold["layers"].items():
        out[f"{layer}.self_us_per_op"] = bucket["self_s"] * 1e6 / ops
        out[f"{layer}.pycalls_per_op"] = bucket["calls"] / ops
    out["orb.marshal.encodes_per_op"] = fold["marshal_encodes"] / ops
    out["orb.marshal.decodes_per_op"] = fold["marshal_decodes"] / ops
    return out


def layer_shares(fold: Dict) -> List[tuple]:
    """(layer, share of traced self time), largest first."""
    total = fold["total_s"] or 1.0
    shares = [(layer, bucket["self_s"] / total) for layer, bucket in fold["layers"].items()]
    return sorted(shares, key=lambda item: -item[1])
