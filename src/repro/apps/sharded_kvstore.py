"""A sharded replicated key-value store.

The flat :class:`~repro.apps.kvstore.KVStoreServant` funnels every write
through one sequencer; this app splits the key space across shard
subgroups (:mod:`repro.shard`) so each shard orders its own writes.  The
servant side is the flat servant plus a multi-key read (the target of
scatter/gather); the client side wraps a
:class:`~repro.shard.binding.ShardedBinding` with a dictionary-flavoured
API — single-key ops route to one shard, and a multi-key read scatters to
only the addressed shards.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.apps.kvstore import KVStoreServant
from repro.core.modes import Mode
from repro.sim.futures import Future

__all__ = ["ShardKVServant", "ShardedKVClient"]


class ShardKVServant(KVStoreServant):
    """One shard's replica: the flat KV servant plus a multi-key read."""

    OP_COSTS = dict(KVStoreServant.OP_COSTS, mget=40e-6)

    def mget(self, keys: List[str]) -> Dict[str, Any]:
        """The values of ``keys`` that exist on this shard."""
        return {key: self._data[key] for key in keys if key in self._data}


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

    # -- single-key (one shard sees traffic) ---------------------------
    def put(self, key: str, value: Any) -> Future:
        return self.binding.call(
            "put", (key, value), key=key, mode=self.mode, timeout=self.timeout
        )

    def get(self, key: str, default: Any = None) -> Future:
        return self.binding.call(
            "get_or", (key, default), key=key, mode=self.mode, timeout=self.timeout
        )

    # -- multi-key (only the addressed shards see traffic) -------------
    def mget(self, keys: Iterable[str]) -> Future:
        """Resolves with ``{key: value}`` merged across the addressed shards."""
        scattered = self.binding.scatter(
            "mget", list(keys), mode=self.mode, timeout=self.timeout
        )
        return scattered.then(_merge_dicts)


def _merge_dicts(results: Dict[int, Any]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {}
    for shard_no in sorted(results):
        merged.update(results[shard_no].value)
    return merged

