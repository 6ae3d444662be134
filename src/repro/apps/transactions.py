"""Transactional replicated objects over the group service.

The paper points to a companion subsystem (§2.2, ref [16]) that layers
replication of *transactional* objects on top of the object group service.
This module reproduces that idea with optimistic concurrency control on an
actively replicated store:

- clients read versioned values through ordinary group invocations;
- writes are buffered client-side in a :class:`Transaction`;
- ``commit`` submits the read-set (versions) and write-set as **one**
  totally ordered invocation; every replica validates the read versions
  against its (identical) state and applies the writes atomically iff they
  are still current.

Because validation and application are deterministic and requests are
totally ordered, every replica reaches the same verdict for every
transaction — serialisability comes from the group service's total order,
exactly the division of labour the paper describes.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.core.client import GroupBinding
from repro.core.modes import Mode
from repro.errors import ApplicationError
from repro.sim.futures import Future

__all__ = ["TransactionalStoreServant", "TransactionClient", "Transaction", "TxAborted"]


class TxAborted(ApplicationError):
    """Commit-time validation failed: a read value was stale."""


class TransactionalStoreServant:
    """Versioned KV store with atomic multi-key commit (the replica side)."""

    OP_COSTS = {"get_versioned": 15e-6, "tx_commit": 60e-6, "snapshot": 40e-6}

    def __init__(self):
        self._data: Dict[str, Any] = {}
        self._versions: Dict[str, int] = {}
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    # operations (deterministic; driven by totally ordered invocations)
    # ------------------------------------------------------------------
    def get_versioned(self, key: str) -> Tuple[Any, int]:
        """Read a value with its version (version 0 = never written)."""
        return (self._data.get(key), self._versions.get(key, 0))

    def tx_commit(
        self, read_versions: Dict[str, int], writes: Dict[str, Any]
    ) -> Tuple[bool, Dict[str, int]]:
        """Validate the read-set; apply the write-set atomically if current.

        Returns ``(committed, versions)`` where ``versions`` holds the new
        versions on success or the *current* (conflicting) versions on
        abort, so the client can refresh and retry.
        """
        for key, seen_version in read_versions.items():
            if self._versions.get(key, 0) != seen_version:
                self.aborts += 1
                return (False, {k: self._versions.get(k, 0) for k in read_versions})
        new_versions = {}
        for key, value in writes.items():
            self._data[key] = value
            new_versions[key] = self._versions.get(key, 0) + 1
            self._versions[key] = new_versions[key]
        self.commits += 1
        return (True, new_versions)

    def snapshot(self) -> Dict[str, Any]:
        return dict(self._data)

    # ------------------------------------------------------------------
    # state transfer / consistency checking
    # ------------------------------------------------------------------
    def get_state(self):
        return {
            "data": dict(self._data),
            "versions": dict(self._versions),
            "commits": self.commits,
            "aborts": self.aborts,
        }

    def set_state(self, state) -> None:
        self._data = dict(state["data"])
        self._versions = dict(state["versions"])
        self.commits = state["commits"]
        self.aborts = state["aborts"]

    def checksum(self) -> int:
        return hash(
            tuple(sorted((k, str(v), self._versions.get(k, 0)) for k, v in self._data.items()))
        )


class Transaction:
    """Client-side transaction: buffered reads (with versions) and writes."""

    def __init__(self, client: "TransactionClient", txid: int):
        self._client = client
        self.txid = txid
        self.read_versions: Dict[str, int] = {}
        self._local_writes: Dict[str, Any] = {}
        self.finished = False

    def read(self, key: str) -> Future:
        """Read through the group (wait-for-first); records the version."""
        if key in self._local_writes:
            done = Future()
            done.resolve(self._local_writes[key])
            return done
        inner = self._client.binding.invoke(
            "get_versioned", (key,), mode=Mode.FIRST
        )

        def pin_version(result) -> Any:
            value, version = result.value
            # first read of a key pins the version we validate against
            self.read_versions.setdefault(key, version)
            return value

        return inner.then(pin_version)

    def write(self, key: str, value: Any) -> None:
        """Buffer a write; nothing is visible until commit."""
        if self.finished:
            raise TxAborted(f"transaction {self.txid} already finished")
        self._local_writes[key] = value

    def commit(self, mode: str = Mode.MAJORITY) -> Future:
        """Submit atomically; resolves True on commit, fails TxAborted else."""
        if self.finished:
            raise TxAborted(f"transaction {self.txid} already finished")
        self.finished = True
        inner = self._client.binding.invoke(
            "tx_commit", (dict(self.read_versions), dict(self._local_writes)), mode=mode
        )

        def decide(result) -> Any:
            committed, versions = result.value
            if not committed:
                raise TxAborted(f"transaction {self.txid}: stale reads {versions}")
            return versions

        return inner.then(decide)

    def abort(self) -> None:
        """Discard the transaction locally (nothing was ever sent)."""
        self.finished = True
        self._local_writes.clear()


class TransactionClient:
    """Factory for transactions over one group binding."""

    def __init__(self, binding: GroupBinding):
        self.binding = binding
        self._ids = itertools.count(1)

    def begin(self) -> Transaction:
        return Transaction(self, next(self._ids))

    def run(self, attempts: int, body) -> "Future":
        """Retry helper: run ``body(tx)`` (a generator) until it commits.

        ``body`` receives a fresh transaction and must yield futures (its
        reads); the helper commits after the body finishes and retries on
        :class:`TxAborted` up to ``attempts`` times.  Returns a future of
        the committed versions.  Intended for use inside sim processes::

            outcome = yield client.run(5, transfer_body)
        """
        from repro.sim.process import spawn

        result = Future(name="tx-run")

        def driver():
            last_error: Optional[BaseException] = None
            for _ in range(attempts):
                tx = self.begin()
                try:
                    gen = body(tx)
                    if gen is not None:
                        yield from gen
                    versions = yield tx.commit()
                    result.resolve(versions)
                    return
                except TxAborted as exc:
                    last_error = exc
                    continue
            result.fail(last_error or TxAborted("no attempts made"))

        spawn(self.binding.sim, driver(), name="tx-driver")
        return result
