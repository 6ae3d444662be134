"""A sharded replicated key-value store.

The flat :class:`~repro.apps.kvstore.KVStoreServant` funnels every write
through one sequencer; this app splits the key space across shard
subgroups (:mod:`repro.shard`) so each shard orders its own writes.  The
servant side is the flat servant plus multi-key operations (the targets of
scatter/gather); the client side wraps a
:class:`~repro.shard.binding.ShardedBinding` with a dictionary-flavoured
API — single-key ops route to one shard, multi-key ops scatter to only the
addressed shards, and ``scan_keys`` fans out to all of them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.apps.kvstore import KVStoreServant
from repro.core.modes import Mode
from repro.sim.futures import Future

__all__ = ["ShardKVServant", "ShardedKVClient"]


class ShardKVServant(KVStoreServant):
    """One shard's replica: the flat KV servant plus multi-key operations."""

    OP_COSTS = dict(
        KVStoreServant.OP_COSTS,
        mget=40e-6,
        mput=60e-6,
        scan_keys=55e-6,
    )

    def mget(self, keys: List[str]) -> Dict[str, Any]:
        """The values of ``keys`` that exist on this shard."""
        return {key: self._data[key] for key in keys if key in self._data}

    def mput(self, items: List[Tuple[str, Any]]) -> int:
        """Write several pairs; returns the number written."""
        for key, value in items:
            self.put(key, value)
        return len(items)

    def scan_keys(self, prefix: str) -> List[str]:
        """This shard's keys with ``prefix``, sorted."""
        return [key for key in sorted(self._data) if key.startswith(prefix)]


class ShardedKVClient:
    """Dictionary-flavoured client over a sharded kvstore binding."""

    def __init__(self, binding, mode: str = Mode.ALL,
                 timeout: Optional[float] = None):
        self.binding = binding
        self.mode = mode
        self.timeout = timeout

    @property
    def ready(self) -> Future:
        return self.binding.ready

    def shard_of(self, key: str) -> int:
        return self.binding.shard_of(key)

    # -- single-key (one shard sees traffic) ---------------------------
    def put(self, key: str, value: Any) -> Future:
        return self.binding.call(
            "put", (key, value), key=key, mode=self.mode, timeout=self.timeout
        )

    def get(self, key: str, default: Any = None) -> Future:
        return self.binding.call(
            "get_or", (key, default), key=key, mode=self.mode, timeout=self.timeout
        )

    def delete(self, key: str) -> Future:
        return self.binding.call(
            "delete", (key,), key=key, mode=self.mode, timeout=self.timeout
        )

    # -- multi-key (only the addressed shards see traffic) -------------
    def mget(self, keys: Iterable[str]) -> Future:
        """Resolves with ``{key: value}`` merged across the addressed shards."""
        scattered = self.binding.scatter(
            "mget", list(keys), mode=self.mode, timeout=self.timeout
        )
        return scattered.then(_merge_dicts)

    def mput(self, items: Dict[str, Any]) -> Future:
        """Resolves with the total number of pairs written."""
        grouped = self.binding.group_by_shard(items)
        scattered = self.binding._scatter_grouped(
            grouped,
            "mput",
            self.mode,
            self.timeout,
            lambda shard_keys: ([(key, items[key]) for key in shard_keys],),
        )
        return scattered.then(_sum_counts)

    # -- range read (every shard is genuinely addressed) ---------------
    def scan_keys(self, prefix: str) -> Future:
        """Resolves with all matching keys across every shard, sorted."""
        scattered = self.binding.invoke_all(
            "scan_keys", (prefix,), mode=self.mode, timeout=self.timeout
        )
        return scattered.then(_merge_key_lists)

    def close(self) -> None:
        self.binding.close()


def _merge_dicts(results: Dict[int, Any]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {}
    for shard_no in sorted(results):
        merged.update(results[shard_no].value)
    return merged


def _sum_counts(results: Dict[int, Any]) -> int:
    return sum(results[shard_no].value for shard_no in results)


def _merge_key_lists(results: Dict[int, Any]) -> List[str]:
    keys: List[str] = []
    for shard_no in sorted(results):
        keys.extend(results[shard_no].value)
    return sorted(keys)
