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

Contributions meet in each combining node's per-call *slot*; merging is
always in *rank* order (never arrival order), and an optional argument
reducer — validated against the combining laws at bind time — folds
single-argument contributions on the way up (in-network map/reduce over the
cohort).  The root's group call runs on a
:class:`~repro.core.client.GroupBinding` bound with the same scheme, whose
plan applies its reply half; the root fans the outcome to the cohort.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.core.client import GroupBinding
from repro.core.messages import CombinedReply, Contribution
from repro.core.modes import InvocationScheme, ReplyScheme
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
        self._binding._offer(contribution)

    def combined_reply(self, reply: CombinedReply) -> None:
        self._binding._deliver_reply(reply)


class CombinedBinding:
    """One cohort member's handle on a combined invocation stream.

    Every member of ``scheme.callers`` binds one of these (same service,
    same scheme: ``service.bind(name, scheme=...)``) and the cohort invokes
    in lock-step: the k-th :meth:`invoke` on each member belongs to the
    same logical call.  Only the root binds to the target service; everyone
    else resolves through the root's fan-out of the per-call
    :class:`CombinedReply`.
    """

    def __init__(
        self,
        service,
        service_name: str,
        scheme: SchemeConfig,
        **bind_kwargs: Any,
    ):
        self.sim = service.sim
        self.orb = service.orb
        self.client_id = service.orb.node.name
        self.service_name = service_name
        self.scheme = scheme
        self.combine_id = scheme.combine_id
        self.cohort: Tuple[str, ...] = scheme.callers
        #: a ConfigurationError, before any message, outside the cohort
        self.rank = rank = scheme.rank_of(self.client_id)
        self.size = size = len(self.cohort)
        self.is_root = rank == 0
        self._tree = scheme.invocation == InvocationScheme.COMBINED_TREE
        self._arg_reducer = scheme.arg_reducer
        #: nobody waits on a discarded reply: no pending call, no fan-out
        self._waits = scheme.reply != ReplyScheme.DISCARD
        self._object_id = combiner_servant_id(service_name, self.combine_id)
        # -- the combining structure, fixed at bind ----------------------
        if self._tree:
            children = [r for r in (2 * rank + 1, 2 * rank + 2) if r < size]
            parent = (rank - 1) // 2
        else:
            children = list(range(1, size)) if self.is_root else []
            parent = 0
        #: the ranks whose contributions meet here for each logical call
        self._expect = frozenset((rank, *children))
        iors = {m: IOR(m, "RootPOA", self._object_id) for m in self.cohort}
        #: where a non-root sends its merged share, and where the root fans
        #: each call's outcome (every other member)
        self._parent = None if self.is_root else iors[self.cohort[parent]]
        self._peers = [iors[m] for m in self.cohort if self.is_root and m != self.client_id]
        self._closed = False
        self._calls = itertools.count(1)
        #: logical call_no -> (future, timer)
        self._pending: Dict[int, Tuple[Future, Any]] = {}
        #: the rendezvous: logical call_no -> [(operation, timeout) once the
        #: local caller has invoked, {rank: contribution}].  A child's share
        #: may arrive before the local caller invokes; the slot fires once,
        #: when every expected rank is in.
        self._slots: Dict[int, List] = {}
        self.orb.register(_CombinerServant(self), object_id=self._object_id)

        metrics = service.sim.obs.metrics
        self._calls_counter = metrics.counter("gmi.combined.calls")
        self._contrib_counter = metrics.counter("gmi.contributions")
        #: remote in-degree per completed rendezvous: cohort-1 at a flat
        #: root, bounded by the arity at every node of a combining tree
        self._fanin_hist = metrics.histogram("gmi.combined.fanin")

        self.ready = Future(name=f"combined-ready:{service_name}@{self.client_id}")
        if self.is_root:
            self._binding = GroupBinding(service, service_name, scheme=scheme, **bind_kwargs)
            self._binding.ready.then(lambda _binding: self, into=self.ready)
        else:
            self._binding = None
            self.ready.resolve(self)

    # ------------------------------------------------------------------
    # invocation and the rendezvous
    # ------------------------------------------------------------------
    def invoke(
        self,
        operation: str,
        args: Tuple = (),
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
        if self._waits:
            timer = None
            if timeout is not None:
                timer = self.sim.schedule(timeout, self._on_timeout, call_no)
            self._pending[call_no] = (future, timer)
        else:
            # the rendezvous and the one-way group call still happen below
            future.resolve(None)
        own = Contribution(self.combine_id, call_no, self.rank, [(self.rank, args)], 1)
        self._offer(own, (operation, timeout))
        return future

    def _offer(self, contribution: Contribution, call: Optional[Tuple] = None) -> None:
        """A share of logical call ``contribution.call_no`` met here —
        ``call`` is the local caller's (operation, timeout) with its own."""
        call_no = contribution.call_no
        slot = self._slots.get(call_no)
        if slot is None:
            slot = self._slots[call_no] = [None, {}]
        if call is not None:
            slot[0] = call
        got = slot[1]
        got[contribution.rank] = contribution
        if not got.keys() >= self._expect:
            return
        del self._slots[call_no]
        # the local caller's own contribution is not remote fan-in
        self._fanin_hist.record(len(got) - 1)
        merged_parts, count = self._merge(got)
        operation, timeout = slot[0]
        if self.is_root:
            self._issue(call_no, operation, merged_parts, count, timeout)
            return
        upward = Contribution(self.combine_id, call_no, self.rank, merged_parts, count)
        self._contrib_counter.inc()
        self.orb.invoke(self._parent, "contribute", (upward,), oneway=True)

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
        inner = self._binding.invoke(operation, call_args, timeout=timeout)
        if self._waits:
            inner.add_done_callback(lambda fut: self._fan_reply(call_no, fut))

    def _fan_reply(self, call_no: int, fut: Future) -> None:
        """Hand the group call's outcome, as the root's binding shaped it,
        to every cohort member."""
        if fut.failed:
            message = CombinedReply(self.combine_id, call_no, False, str(fut.exception))
        else:
            message = CombinedReply(self.combine_id, call_no, True, fut.result())
        for peer in self._peers:
            self.orb.invoke(peer, "combined_reply", (message,), oneway=True)
        self._deliver_reply(message)

    def _deliver_reply(self, reply: CombinedReply) -> None:
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
        self._slots.pop(call_no, None)
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
        self._slots.clear()
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
