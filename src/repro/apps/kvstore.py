"""A replicated key-value store servant.

The paper motivates object groups with "management of replicated data for
high availability ... given atomic delivery and order, it is relatively easy
to ensure that copies of data do not diverge" (§1).  This servant is that
application: a dictionary whose operations are deterministic, so active
replicas driven by totally ordered invocations stay identical, and whose
state is transferable, so passive backups and joining members catch up.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["KVStoreServant"]


class KVStoreServant:
    """Dictionary with versioned writes."""

    OP_COSTS = {
        "put": 30e-6,
        "get": 15e-6,
        "keys": 50e-6,
        "size": 10e-6,
    }

    def __init__(self):
        self._data: Dict[str, Any] = {}
        self._versions: Dict[str, int] = {}
        self._writes = 0

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> int:
        """Write; returns the key's new version number."""
        self._data[key] = value
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        self._writes += 1
        return version

    def get(self, key: str) -> Any:
        if key not in self._data:
            raise KeyError(key)
        return self._data[key]

    def get_or(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def keys(self) -> List[str]:
        return sorted(self._data)

    def size(self) -> int:
        return len(self._data)

    @property
    def writes(self) -> int:
        return self._writes

    # ------------------------------------------------------------------
    # state transfer
    # ------------------------------------------------------------------
    def get_state(self):
        return {
            "data": dict(self._data),
            "versions": dict(self._versions),
            "writes": self._writes,
        }

    def set_state(self, state) -> None:
        self._data = dict(state["data"])
        self._versions = dict(state["versions"])
        self._writes = state["writes"]

    def checksum(self) -> int:
        """Order-insensitive digest for replica-consistency assertions."""
        return hash(tuple(sorted((k, str(v)) for k, v in self._data.items())))
