"""Group-to-group request/reply invocations (§4.3).

Members of a client group gx invoke a server group gy through a shared
request manager (a member of gy).  A *client monitor group* gz — gx's
members plus the manager — carries the requests and replies:

- every gx member multicasts the call in gz (same call number);
- the manager filters the duplicates, forwards one copy into gy using the
  open-group mechanism, and gathers gy's replies;
- the manager multicasts the reply set in gz, so delivery to gx's members
  is atomic (the design's single inter-group multicast).

Each gx member drives its own :class:`GroupToGroupBinding`; call numbers
advance in lock-step because members issue calls in reaction to totally
ordered gx deliveries.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.core.client import InvocationResult
from repro.core.messages import InvokeMsg, ReplySet, ShedReply
from repro.core.modes import Mode
from repro.core.registry import server_servant_id
from repro.errors import BindingBroken, Overloaded
from repro.groupcomm.config import GroupConfig
from repro.orb.ior import IOR
from repro.sim.futures import Future

__all__ = ["GroupToGroupBinding"]


class GroupToGroupBinding:
    """One gx member's handle for invoking server group gy via gz."""

    def __init__(
        self,
        service,
        client_group: str,
        client_members: List[str],
        target_service: str,
        **group_config: Any,
    ):
        self.service = service
        self.sim = service.sim
        self.orb = service.orb
        self.member_id = service.orb.node.name
        self.client_group = client_group
        self.client_members = list(client_members)
        self.target_service = target_service
        #: the monitor group's parameters (gz); the manager becomes its
        #: sequencer once the registry names it
        self.config = GroupConfig.for_invocation(**group_config)
        self.manager: Optional[str] = None

        obs = service.sim.obs
        self._tracer = obs.tracer
        self._invocations_counter = obs.metrics.counter("g2g.invocations")
        self._latency_hist = obs.metrics.histogram("g2g.invoke_latency")

        self.ready = Future(name=f"g2g-ready:{client_group}->{target_service}")
        self.monitor_name = f"g2g:{client_group}:{target_service}"
        self._monitor = None
        self._calls = itertools.count(1)
        self._pending: Dict[int, Future] = {}
        self._spans: Dict[int, Tuple[Any, float]] = {}
        self._closed = False
        self._start()

    # ------------------------------------------------------------------
    # setup: build the client monitor group gz
    # ------------------------------------------------------------------
    def _start(self) -> None:
        lookup = self.service.registry.lookup(self.target_service)

        def on_lookup(fut: Future) -> None:
            if fut.failed:
                self.ready.try_fail(
                    BindingBroken(f"service {self.target_service!r} not advertised")
                )
                return
            members = self.service.registry.members_of(fut.result())
            self.manager = members[0]  # the designated (restricted) manager
            self._build_monitor()

        lookup.add_done_callback(on_lookup)

    def _build_monitor(self) -> None:
        config = self.config.replace(sequencer_hint=self.manager)
        initiator = self.client_members[0]
        if self.member_id == initiator:
            self._monitor = self.service.gcs.create_group(self.monitor_name, config)
            # the initiator sponsors the manager's membership in gz
            servant = IOR(self.manager, "RootPOA", server_servant_id(self.target_service))
            self.orb.invoke(
                servant,
                "join_client_group",
                (self.monitor_name, self.member_id, "open"),
                timeout=2.0,
            )
        else:
            self._monitor = self.service.gcs.join_group(self.monitor_name, initiator)
        self._monitor.on_deliver = self._on_monitor_deliver
        expected = len(self.client_members) + 1  # gx members + the manager
        self._await_view(expected)

    def _await_view(self, size: int) -> None:
        if self._closed:
            return
        view = self._monitor.view
        if view is not None and len(view.members) >= size:
            self.ready.try_resolve(self)
            return
        self.sim.schedule(1e-3, self._await_view, size)

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------
    def invoke(self, operation: str, args: Tuple = (), mode: str = Mode.ALL) -> Future:
        """Issue this member's copy of the group call.

        Every member of gx must invoke with the same sequence of calls; the
        shared request manager forwards exactly one copy per call number.
        Resolves with an :class:`InvocationResult` at *every* member.
        """
        if self._closed:
            done = Future()
            done.fail(BindingBroken("g2g binding closed"))
            return done
        call_no = next(self._calls)
        future = Future(name=f"g2g:{operation}#{call_no}@{self.member_id}")
        message = InvokeMsg(
            self.client_group,  # the *group* is the logical caller
            call_no,
            operation,
            tuple(args),
            mode,
            False,
            self.monitor_name,
        )
        self._invocations_counter.inc()
        tracer = self._tracer
        span = None
        if tracer.enabled:
            span = tracer.start_span(
                "g2g.invoke",
                kind="client",
                node=self.member_id,
                parent=None,
                attrs={
                    "client_group": self.client_group,
                    "target": self.target_service,
                    "operation": operation,
                    "mode": mode,
                    "call_no": call_no,
                },
            )
        if mode == Mode.ONE_WAY:
            with tracer.use_root(span):
                self._monitor.send(message)
            tracer.end_span(span, outcome="oneway")
            future.resolve(None)
            return future
        self._pending[call_no] = future
        self._spans[call_no] = (span, self.sim.now)
        with tracer.use_root(span):
            self._monitor.send(message)
        return future

    def _on_monitor_deliver(self, sender: str, payload: Any) -> None:
        if not isinstance(payload, (ReplySet, ShedReply)):
            return  # other members' request copies; the manager filters them
        future = self._pending.pop(payload.call_no, None)
        span, sent_at = self._spans.pop(payload.call_no, (None, None))
        if isinstance(payload, ShedReply):
            # the manager refused the call before forwarding it; the refusal
            # is one multicast in gz, so every gx member fails the call alike
            self._tracer.end_span(span, outcome="shed")
            if future is not None:
                future.try_fail(
                    Overloaded(
                        f"g2g call #{payload.call_no} shed by {payload.member}",
                        retry_after=payload.retry_after,
                    )
                )
            return
        if sent_at is not None:
            self._latency_hist.record(self.sim.now - sent_at)
        self._tracer.end_span(span, outcome="ok", replies=len(payload.replies))
        if future is not None:
            future.try_resolve(InvocationResult(payload.replies))

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for future in self._pending.values():
            future.try_fail(BindingBroken("g2g binding closed"))
        self._pending.clear()
        for span, _ in self._spans.values():
            self._tracer.end_span(span, outcome="error")
        self._spans.clear()
        if self._monitor is not None:
            self._monitor.leave()
            self._monitor = None
