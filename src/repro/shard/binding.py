"""Client side of sharded subgroups: shard-aware invocation routing.

A :class:`ShardedBinding` holds one ordinary
:class:`~repro.core.client.GroupBinding` per shard sub-service
(``svc#0`` … ``svc#N-1``) and routes on top of them:

- **single-key calls** hash the key to one shard
  (:func:`~repro.shard.layout.key_to_shard`) and invoke only that
  sub-binding — the majority/first/all reply modes are therefore computed
  against the *shard's* view size, and no other shard sees any protocol
  traffic (FlexCast's genuineness property, asserted by the invariant
  suite);
- **multi-key calls** scatter: keys are grouped by shard, one invocation
  goes to each *addressed* shard only, and the per-shard results gather
  into one mapping.

Stale-routing fix: after a shard re-layout every member a sub-binding knew
may have handed the shard off.  The sub-binding's own rebind retries the
*remembered* membership first and gives up with
:class:`~repro.errors.BindingBroken` once nobody it knows survives; the
sharded layer then *remaps* — it discards the stale sub-binding entirely
and builds a fresh one, whose registry lookup re-resolves the shard's
current membership — rather than retrying the stale shard's sequencer
forever.  Remaps are bounded and jitter-backed like rebinds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.client import GroupBinding, first_value
from repro.core.modes import Mode
from repro.errors import BindingBroken, ConfigurationError
from repro.recovery.policy import RetryPolicy
from repro.shard.layout import key_to_shard, shard_service_name
from repro.sim.futures import Future
from repro.sim.process import all_of

__all__ = ["ShardedBinding"]


class ShardedBinding:
    """A client's binding to one sharded service (one sub-binding per shard)."""

    #: bounded remap attempts after a sub-binding breaks, and the jittered
    #: backoff envelope between them (fresh lookup each time — the shard's
    #: new members advertise as soon as their first view installs)
    REMAP = RetryPolicy(max_attempts=4, base_delay=0.3, factor=2.0, max_delay=2.0)

    def __init__(
        self,
        service,
        service_name: str,
        num_shards: int,
        **binding_kwargs: Any,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if binding_kwargs.get("scheme") is not None:
            raise ConfigurationError(
                "a sharded binding takes no scheme: it routes and gathers itself"
            )
        self.service = service
        self.sim = service.sim
        self.client_id = service.orb.node.name
        self.service_name = service_name
        self.num_shards = num_shards
        self._binding_kwargs = dict(binding_kwargs)
        self._closed = False

        obs = service.sim.obs
        self._remap_counter = obs.metrics.counter("shard.client.remaps")
        self._scatter_counter = obs.metrics.counter("shard.client.scatters")
        self._fanout_hist = obs.metrics.histogram("shard.scatter.fanout")
        self._remap_rng = service.sim.rng(f"shard.remap.{self.client_id}")

        self._bindings: List[GroupBinding] = [
            self._make_binding(shard_no) for shard_no in range(num_shards)
        ]
        self.ready = Future(name=f"sharded-bound:{service_name}@{self.client_id}")
        all_of([b.ready for b in self._bindings]).then(
            lambda _bindings: self, into=self.ready
        )

    def _make_binding(self, shard_no: int) -> GroupBinding:
        return GroupBinding(
            self.service,
            shard_service_name(self.service_name, shard_no),
            metric_tag=f"s{shard_no}",
            **self._binding_kwargs,
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, key: Any) -> int:
        return key_to_shard(key, self.num_shards)

    def binding(self, shard_no: int) -> GroupBinding:
        return self._bindings[shard_no]

    def group_by_shard(self, keys: Iterable[Any]) -> Dict[int, List[Any]]:
        grouped: Dict[int, List[Any]] = {}
        for key in keys:
            grouped.setdefault(self.shard_of(key), []).append(key)
        return grouped

    # ------------------------------------------------------------------
    # single-key invocation
    # ------------------------------------------------------------------
    def invoke(
        self,
        operation: str,
        args: Tuple = (),
        key: Any = None,
        mode: str = Mode.ALL,
        timeout: Optional[float] = None,
    ) -> Future:
        """Invoke on the shard owning ``key`` (shard 0 when ``key`` is None
        and the service has a single shard).

        Resolves with an :class:`~repro.core.client.InvocationResult` from
        that shard alone.
        """
        if key is None and self.num_shards > 1:
            raise ValueError("single-key invoke on a sharded binding needs key=")
        shard_no = 0 if key is None else self.shard_of(key)
        return self._attempt(shard_no, operation, args, mode, timeout)

    def call(
        self,
        operation: str,
        args: Tuple = (),
        key: Any = None,
        mode: str = Mode.FIRST,
        timeout: Optional[float] = None,
    ) -> Future:
        """Like :meth:`invoke` but resolves with the first reply *value*."""
        inner = self.invoke(operation, args, key=key, mode=mode, timeout=timeout)
        return inner.then(first_value)

    # ------------------------------------------------------------------
    # scatter/gather
    # ------------------------------------------------------------------
    def scatter(
        self,
        operation: str,
        keys: Iterable[Any],
        mode: str = Mode.ALL,
        timeout: Optional[float] = None,
    ) -> Future:
        """Invoke ``operation`` once on every shard that owns one of ``keys``,
        with that shard's key subset as the single argument.

        Only the addressed shards see any traffic.  Resolves with
        ``{shard_no: InvocationResult}``.
        """
        return self._scatter_grouped(self.group_by_shard(keys), operation, mode, timeout)

    def invoke_all(
        self,
        operation: str,
        args: Tuple = (),
        mode: str = Mode.ALL,
        timeout: Optional[float] = None,
    ) -> Future:
        """Invoke ``operation(*args)`` on *every* shard (range reads, scans).

        Resolves with ``{shard_no: InvocationResult}``.
        """
        every = dict.fromkeys(range(self.num_shards))
        return self._scatter_grouped(every, operation, mode, timeout, lambda _: tuple(args))

    def _scatter_grouped(
        self,
        grouped: Dict[int, Optional[List[Any]]],
        operation: str,
        mode: str,
        timeout: Optional[float],
        args_for: Optional[Callable[[List[Any]], Tuple]] = None,
    ) -> Future:
        self._scatter_counter.inc()
        self._fanout_hist.record(len(grouped))
        shard_nos = sorted(grouped)
        calls = [
            self._attempt(
                shard_no,
                operation,
                (grouped[shard_no],) if args_for is None else args_for(grouped[shard_no]),
                mode,
                timeout,
            )
            for shard_no in shard_nos
        ]
        return all_of(calls).then(lambda results: dict(zip(shard_nos, results)))

    # ------------------------------------------------------------------
    # per-shard invoke with remap-on-broken-binding
    # ------------------------------------------------------------------
    def _attempt(
        self,
        shard_no: int,
        operation: str,
        args: Tuple,
        mode: str,
        timeout: Optional[float],
        attempt: int = 0,
        result: Optional[Future] = None,
    ) -> Future:
        """Invoke on shard ``shard_no``'s sub-binding; ``result`` (made by
        the first attempt) settles with the call's outcome."""
        if result is None:
            result = Future(name=f"shard-call:{operation}#{shard_no}@{self.client_id}")
        if self._closed:
            result.try_fail(BindingBroken("sharded binding closed"))
            return result
        binding = self._bindings[shard_no]
        inner = binding.invoke(operation, args, mode=mode, timeout=timeout)

        def on_done(fut: Future) -> None:
            if not fut.failed:
                result.try_resolve(fut.result())
                return
            exc = fut.exception
            if (
                isinstance(exc, BindingBroken)
                and not self._closed
                and attempt < self.REMAP.max_attempts
            ):
                # every member the sub-binding knew is gone: a re-layout (or
                # multi-crash) moved the shard.  Remap — fresh binding, fresh
                # registry lookup — instead of retrying the stale membership.
                self._remap(shard_no, binding)
                self.sim.schedule(
                    self.REMAP.delay(attempt + 1, self._remap_rng),
                    self._attempt,
                    shard_no,
                    operation,
                    args,
                    mode,
                    timeout,
                    attempt + 1,
                    result,
                )
                return
            result.try_fail(exc)

        inner.add_done_callback(on_done)
        return result

    def _remap(self, shard_no: int, failed_binding: GroupBinding) -> None:
        if self._bindings[shard_no] is not failed_binding:
            return  # a concurrent call on this shard already remapped it
        self._remap_counter.inc()
        failed_binding.close()
        self._bindings[shard_no] = self._make_binding(shard_no)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for binding in self._bindings:
            binding.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return (
            f"<ShardedBinding {self.service_name}@{self.client_id} "
            f"x{self.num_shards} {state}>"
        )
