"""Combined invocations: N callers rendezvous into one group call.

The GMI exemplar's ``I_COMBINED``: a *cohort* of callers (named up front in
the :class:`~repro.core.scheme.SchemeConfig`) invoke in lock-step, their
per-caller arguments are merged, and exactly **one** group invocation —
issued by the cohort's rank-0 *root* — reaches the server group.  The
server group never learns the call was combined: it sees an ordinary
:class:`~repro.core.messages.InvokeMsg` from the root's binding, so
ordering, duplicate suppression and the wire protocol all apply unchanged.

Two fan-in structures:

- **flat** (``combined_flat``) — every caller sends its contribution
  straight to the root, whose CPU serialises cohort-1 merges per call;
- **tree** (``combined_tree``) — a binary combining tree (children of rank
  *r* are ``2r+1``/``2r+2``); inner nodes merge their subtree and send one
  partial contribution up, so no node ever handles more than two remote
  contributions and the root's cost stays constant as the cohort grows.

Contributions meet at each node in the group-communication service's
:class:`~repro.groupcomm.service.CombinerRendezvous`; merging is always in
*rank* order (never arrival order), and an optional argument reducer —
validated against the combining laws at bind time — folds single-argument
contributions on the way up (in-network map/reduce over the cohort).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.core.client import GroupBinding, forward_reply, shape_reply
from repro.core.messages import CombinedReply, Contribution
from repro.core.modes import ReplyScheme
from repro.core.scheme import SchemeConfig
from repro.errors import ApplicationError, BindingBroken, CommFailure, ConfigurationError
from repro.orb.ior import IOR
from repro.sim.futures import Future

__all__ = ["CombinedBinding", "COMBINE_COST", "combiner_servant_id"]

#: CPU cost of receiving one contribution at a combining node: unmarshal
#: the rank-keyed parts, merge them into the local slot's segment.  This is
#: the per-contribution work the flat scheme serialises at its root and the
#: tree scheme spreads over the cohort.
COMBINE_COST = 500e-6


def combiner_servant_id(service_name: str, combine_id: str) -> str:
    return f"cmb:{service_name}:{combine_id}"


class _CombinerServant:
    """ORB-facing receiver for contributions and combined replies."""

    OP_COSTS = {"contribute": COMBINE_COST, "combined_reply": 20e-6}

    def __init__(self, binding: "CombinedBinding"):
        self._binding = binding

    def contribute(self, contribution: Contribution) -> None:
        self._binding._on_contribution(contribution)

    def combined_reply(self, reply: CombinedReply) -> None:
        self._binding._deliver_reply(reply)


class CombinedBinding:
    """One cohort member's handle on a combined invocation stream.

    Every member of ``scheme.callers`` constructs one of these (same
    service, same scheme) and the cohort invokes in lock-step: the k-th
    :meth:`invoke` on each member belongs to the same logical call.  Only
    the root binds to the target service; everyone else resolves through
    the root's fan-out of the per-call :class:`CombinedReply`.
    """

    def __init__(
        self,
        service,
        service_name: str,
        scheme: SchemeConfig,
        **bind_kwargs: Any,
    ):
        if not scheme.is_combined:
            raise ConfigurationError(
                f"CombinedBinding requires a combined scheme, got "
                f"{scheme.invocation!r}"
            )
        self.service = service
        self.sim = service.sim
        self.orb = service.orb
        self.client_id = service.orb.node.name
        self.service_name = service_name
        self.scheme = scheme
        self.combine_id = scheme.combine_id
        self.cohort: Tuple[str, ...] = scheme.callers
        self.rank = scheme.rank_of(self.client_id)
        self.size = scheme.cohort_size
        self.is_root = self.rank == 0
        self._tree = scheme.invocation == "combined_tree"
        self._arg_reducer = scheme.arg_reducer
        self._closed = False
        self._calls = itertools.count(1)
        #: logical call_no -> (future, timer)
        self._pending: Dict[int, Tuple[Future, Any]] = {}
        self._rendezvous = service.gcs.combiner
        self._object_id = combiner_servant_id(service_name, self.combine_id)
        self.orb.register(_CombinerServant(self), object_id=self._object_id)

        obs = service.sim.obs
        self._calls_counter = obs.metrics.counter("gmi.combined.calls")
        self._contrib_counter = obs.metrics.counter("gmi.contributions")
        self._reduce_inputs = obs.metrics.histogram("gmi.reduce.inputs")
        self._reduce_latency = obs.metrics.histogram("gmi.reduce.latency")

        self.ready = Future(name=f"combined-ready:{service_name}@{self.client_id}")
        if self.is_root:
            self._binding = GroupBinding(service, service_name, **bind_kwargs)
            self._binding.ready.then(lambda _binding: self, into=self.ready)
        else:
            self._binding = None
            self.ready.resolve(self)

    # ------------------------------------------------------------------
    # combining structure
    # ------------------------------------------------------------------
    def _children(self) -> List[int]:
        if self._tree:
            return [r for r in (2 * self.rank + 1, 2 * self.rank + 2) if r < self.size]
        return list(range(1, self.size)) if self.is_root else []

    def _parent(self) -> Optional[int]:
        if self.is_root:
            return None
        return (self.rank - 1) // 2 if self._tree else 0

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------
    def invoke(
        self,
        operation: str,
        args: Tuple = (),
        mode: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Future:
        """Contribute this caller's share of the next logical combined call.

        The whole cohort must call this the same number of times with the
        same operation — the k-th invocations rendezvous into logical call
        k.  Resolves per the reply scheme (``return_one`` value / combined
        value / ``None`` for discard and forward).
        """
        if self._closed:
            done = Future()
            done.fail(BindingBroken("combined binding closed"))
            return done
        args = tuple(args)
        if self._arg_reducer is not None and len(args) != 1:
            raise ConfigurationError(
                f"argument reducer {self._arg_reducer.name!r} requires "
                f"single-argument contributions, got {len(args)}"
            )
        call_no = next(self._calls)
        future = Future(name=f"combined:{operation}@{self.client_id}#{call_no}")
        if self.scheme.reply == ReplyScheme.DISCARD:
            # nobody waits for a discarded call; the rendezvous and the
            # one-way group call still happen below
            future.resolve(None)
        else:
            timer = None
            if timeout is not None:
                timer = self.sim.schedule(timeout, self._on_timeout, call_no)
            self._pending[call_no] = (future, timer)
        own = Contribution(
            self.combine_id, call_no, self.rank, [(self.rank, args)], 1
        )
        key = (self.combine_id, call_no)
        self._rendezvous.arm(
            key,
            [self.rank, *self._children()],
            lambda got: self._on_rendezvous(call_no, operation, mode, timeout, got),
        )
        self._rendezvous.offer(key, self.rank, own)
        return future

    def _on_contribution(self, contribution: Contribution) -> None:
        if contribution.combine_id != self.combine_id:
            return
        self._rendezvous.offer(
            (self.combine_id, contribution.call_no),
            contribution.rank,
            contribution,
        )

    def _on_rendezvous(
        self,
        call_no: int,
        operation: str,
        mode: Optional[str],
        timeout: Optional[float],
        got: Dict[int, Contribution],
    ) -> None:
        merged_parts, count = self._merge(got)
        if self.is_root:
            self._issue(call_no, operation, merged_parts, count, mode, timeout)
            return
        parent = self.cohort[self._parent()]
        upward = Contribution(self.combine_id, call_no, self.rank, merged_parts, count)
        self._contrib_counter.inc()
        target = IOR(parent, "RootPOA", self._object_id)
        self.orb.invoke(target, "contribute", (upward,), oneway=True)

    def _merge(self, got: Dict[int, Contribution]) -> Tuple[List, int]:
        """Merge this node's slot in rank order (never arrival order)."""
        pairs: List[Tuple[int, Tuple]] = []
        count = 0
        for rank in sorted(got):
            contribution = got[rank]
            pairs.extend(contribution.parts)
            count += contribution.count
        pairs.sort(key=lambda pair: pair[0])
        if self._arg_reducer is not None:
            folded = self._arg_reducer.reduce(args[0] for _, args in pairs)
            return [(pairs[0][0], (folded,))], count
        return pairs, count

    # ------------------------------------------------------------------
    # the root's single group call and its reply distribution
    # ------------------------------------------------------------------
    def _issue(
        self,
        call_no: int,
        operation: str,
        merged_parts: List,
        count: int,
        mode: Optional[str],
        timeout: Optional[float],
    ) -> None:
        """Issue the one group invocation for logical call ``call_no``."""
        self._calls_counter.inc()
        if self._arg_reducer is not None:
            call_args = merged_parts[0][1]  # the folded single argument
        else:
            parts = [args for _, args in merged_parts]
            if all(len(args) == 1 for args in parts):
                call_args = ([args[0] for args in parts],)
            else:
                call_args = ([list(args) for args in parts],)
        reply = self.scheme.reply
        effective_mode = mode if mode is not None else self.scheme.default_mode()
        if reply == ReplyScheme.DISCARD:
            self._binding.invoke(operation, call_args, mode="one_way")
            return
        issued_at = self.sim.now
        inner = self._binding.invoke(
            operation, call_args, mode=effective_mode, timeout=timeout
        )
        inner.add_done_callback(
            lambda fut: self._on_result(call_no, operation, issued_at, fut)
        )

    def _on_result(
        self, call_no: int, operation: str, issued_at: float, fut: Future
    ) -> None:
        ok, value = shape_reply(self, fut, issued_at)
        if self.scheme.reply == ReplyScheme.FORWARD:
            forward_reply(self, operation, call_no, ok, value)
            if ok:
                # the cohort still learns the call completed, just not the value
                value = None
        self._fan_reply(call_no, ok, value if ok else str(value))

    def _fan_reply(self, call_no: int, ok: bool, value: Any) -> None:
        message = CombinedReply(self.combine_id, call_no, ok, value)
        for member in self.cohort:
            if member == self.client_id:
                continue
            target = IOR(member, "RootPOA", self._object_id)
            self.orb.invoke(target, "combined_reply", (message,), oneway=True)
        self._deliver_reply(message)

    def _deliver_reply(self, reply: CombinedReply) -> None:
        if reply.combine_id != self.combine_id:
            return
        entry = self._pending.pop(reply.call_no, None)
        if entry is None:
            return
        future, timer = entry
        if timer is not None:
            timer.cancel()
        if reply.ok:
            future.try_resolve(reply.value)
        else:
            future.try_fail(ApplicationError(str(reply.value)))

    def _on_timeout(self, call_no: int) -> None:
        entry = self._pending.pop(call_no, None)
        if entry is None:
            return
        self._rendezvous.cancel((self.combine_id, call_no))
        entry[0].try_fail(
            CommFailure(f"combined call #{call_no} timed out at {self.client_id}")
        )

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        pending, self._pending = self._pending, {}
        for future, timer in pending.values():
            if timer is not None:
                timer.cancel()
            future.try_fail(BindingBroken("combined binding closed"))
        if self._binding is not None:
            self._binding.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shape = "tree" if self._tree else "flat"
        return (
            f"<CombinedBinding {self.service_name}@{self.client_id} "
            f"rank={self.rank}/{self.size} {shape}>"
        )
