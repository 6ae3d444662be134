"""Client-side invocation layer: bindings to object groups.

A :class:`GroupBinding` is the client's handle on a replicated service.
Depending on its style it builds a different client/server group (§2.1):

- **closed** — the group spans the client and *all* servers; the client
  multicasts requests directly (it participates in the group protocols) and
  servers reply point-to-point.  Server failures are masked automatically.
- **open** — the group pairs the client with exactly one server, its
  request manager; the manager re-multicasts inside the server group and
  returns the gathered replies.  The client stays out of the server group's
  protocols (the WAN-friendly configuration).  If the manager fails, the
  binding rebinds to another member — the paper's smart-proxy behaviour —
  and retries outstanding calls under their original call numbers, which
  the servers' reply caches make idempotent.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import (
    ForwardedReply,
    InvokeMsg,
    ReplyMsg,
    ReplySet,
    ScatterArgs,
    ShedReply,
    report_hold,
)
from repro.core.modes import BindingStyle, InvocationScheme, Mode, ReplyScheme, replies_needed
from repro.core.registry import client_sink_id, server_servant_id
from repro.core.scheme import SchemeConfig, reduce_sorted
from repro.errors import (
    ApplicationError,
    BindingBroken,
    CommFailure,
    ConfigurationError,
    Overloaded,
)
from repro.groupcomm.config import GroupConfig
from repro.groupcomm.flowcontrol import FlowQueueFull
from repro.obs.phases import PHASE_NAMES
from repro.obs.tracer import UNSAMPLED
from repro.orb.ior import IOR
from repro.overload import AdmissionConfig, AdmissionController, shed_on_overflow
from repro.recovery.policy import RetryPolicy
from repro.sim.core import Deadline
from repro.sim.futures import Future
from repro.sim.process import all_of

__all__ = ["GroupBinding", "InvocationResult"]


class InvocationResult:
    """The replies gathered for one invocation."""

    def __init__(self, replies: List[ReplyMsg]):
        self.replies = list(replies)

    @property
    def value(self) -> Any:
        """The first successful reply value; raises if none succeeded."""
        for reply in self.replies:
            if reply.ok:
                return reply.value
        if self.replies:
            raise ApplicationError(str(self.replies[0].value))
        raise ApplicationError("no replies")

    def values(self) -> List[Any]:
        return [reply.value for reply in self.replies if reply.ok]

    def by_member(self) -> Dict[str, Any]:
        return {reply.member: reply.value for reply in self.replies if reply.ok}

    def __len__(self) -> int:
        return len(self.replies)

    def __repr__(self) -> str:
        return f"InvocationResult({len(self.replies)} replies)"


def first_value(outcome: Any) -> Any:
    """An invocation outcome as a plain value: the first successful reply of
    an :class:`InvocationResult` (raising its servant error if none
    succeeded); scheme-shaped outcomes and one-way ``None`` pass through."""
    return outcome.value if isinstance(outcome, InvocationResult) else outcome


def _first(replies: List[ReplyMsg]) -> Any:
    """``return_one`` and ``forward``: the first successful reply's value."""
    return InvocationResult(replies).value


def _settle(pending: "_PendingCall", ok: bool, value: Any) -> None:
    """Settle a call's future with its outcome (``value`` is the error if
    not ``ok``)."""
    if ok:
        pending.future.resolve(value)
    else:
        pending.future.fail(value)


class _PendingCall:
    """Client-side state for one outstanding invocation."""

    __slots__ = (
        "call_no",
        "operation",
        "args",
        "mode",
        "future",
        "replies",
        "timer",
        "backoff",
        "span",
        "sent_at",
        "timeout",
        "attempts",
    )

    def __init__(self, call_no: int, operation: str, args: Tuple, mode: str, future: Future):
        self.call_no = call_no
        self.operation = operation
        self.args = args
        self.mode = mode
        self.future = future
        self.replies: Dict[str, ReplyMsg] = {}
        #: the call's one timer: its timeout, or a retry's backoff
        self.timer: Optional[Deadline] = None
        self.backoff = False  # the timer ends a retry's backoff
        self.span = None  # root trace span for this invocation
        self.sent_at = 0.0
        self.timeout: Optional[float] = None
        self.attempts = 0  # retransmissions so far (RetryPolicy)


class GroupBinding:
    """A client's binding to one replicated service."""

    def __init__(
        self,
        service,
        service_name: str,
        style: str = BindingStyle.OPEN,
        restricted: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        scheme: Optional[SchemeConfig] = None,
        admission: Optional[AdmissionConfig] = None,
        metric_tag: Optional[str] = None,
        **group_config: Any,
    ):
        if style not in BindingStyle.ALL_STYLES:
            raise ValueError(f"unknown binding style {style!r}")
        #: the client/server group's parameters: every keyword that is not
        #: a binding-level option is a :class:`GroupConfig` field, validated
        #: here — an unknown one is a ``TypeError`` at bind time.  Each
        #: (re)bind pins the sequencer with ``replace(sequencer_hint=...)``.
        self.config = GroupConfig.for_invocation(**group_config)
        self.service = service
        self.sim = service.sim
        self.orb = service.orb
        self.client_id = service.orb.node.name
        self.service_name = service_name
        self.style = style
        self.restricted = restricted
        self.retry_policy = (
            retry_policy if retry_policy is not None and retry_policy.enabled else None
        )
        #: invocation-scheme × reply-scheme cell this binding runs in
        #: (``None``: plain single/return-replies).  A combined one comes only
        #: from its cohort's root, whose group call runs the reply half.
        self.scheme = scheme
        #: client-side admission control: bounded inflight per binding plus
        #: the manager's piggybacked pushback (None = issue everything)
        self.admission: Optional[AdmissionController] = (
            AdmissionController(
                service.sim, admission, name=f"{service_name}@{self.client_id}"
            )
            if admission is not None
            else None
        )

        obs = service.sim.obs
        metrics = obs.metrics
        self._tracer = obs.tracer
        self._phases = obs.phases
        # -- the call plan: every choice a call would make, made here once --
        reply = scheme.reply if scheme is not None else None
        #: the mode a call runs in when it names none, and the modes it may
        #: name: a reply scheme fixes the mode, so naming one is an error
        self._mode, self._modes = (
            (Mode.ALL, Mode.ALL_MODES) if reply is None else (ReplyScheme.MODES[reply], ())
        )
        #: gathered replies -> the call's outcome -> the call's future
        self._shape = {None: InvocationResult, ReplyScheme.COMBINE: self._combine}.get(
            reply, _first
        )
        self._settle = self._forward if reply == ReplyScheme.FORWARD else _settle
        if reply == ReplyScheme.COMBINE:
            self._reduce_inputs = metrics.histogram("gmi.reduce.inputs")
        if reply == ReplyScheme.FORWARD:
            sink = scheme.forward_to
            self._forward_sink = IOR(sink, "RootPOA", client_sink_id(sink))
            self._forwarded_counter = metrics.counter("gmi.forwarded")
        self._scatters = (
            scheme is not None and scheme.invocation == InvocationScheme.PERSONALIZED
        )
        if self._scatters:
            self._scatter_width = metrics.histogram("gmi.scatter.width")
        self._start = self._invoke_plain if admission is None else self._invoke_admitted
        # every latency histogram a completed call feeds: a shard layer's
        # sub-binding feeds its shard's copy too (``metric_tag``)
        latency = [metrics.histogram("client.invoke_latency")]
        if metric_tag is not None:
            latency.append(metrics.histogram(f"shard.invoke_latency.{metric_tag}"))
        self._latency_hists = tuple(latency)
        self._phase_hists = {n: metrics.histogram(f"inv.phase.{n}") for n in PHASE_NAMES}
        self._invocations_counter = metrics.counter("client.invocations")
        self._rebind_counter = metrics.counter("client.rebinds")
        self._timeout_counter = metrics.counter("client.timeouts")
        self._retry_counter = metrics.counter("client.retries")
        self._retry_after_counter = metrics.counter("overload.retry_after_honored")
        self._backoff_rng = service.sim.rng(f"client.backoff.{self.client_id}")

        self.ready = Future(name=f"bound:{service_name}@{self.client_id}")
        self.manager: Optional[str] = None  # open style: current request manager
        self.servers: List[str] = []
        self.rebinds = 0
        self._epoch_no = 0
        self._gc = None  # the client/server group session
        #: view size that completes the bind in progress (0: none awaited)
        self._bind_size = 0
        self._bound = False
        self._closed = False
        self._pending: Dict[int, _PendingCall] = {}
        self._queued: List[_PendingCall] = []
        #: call timers that ended calls left disarmed, for the next calls
        self._spare_timers: List[Deadline] = []
        #: who the servers see calling (dedupe key, reply address) and the
        #: group their gathered replies travel back through ("": this one)
        self._caller = self.client_id
        self._reply_group = ""
        self._next_call_no = service.next_call_no
        self._span_attrs = {} if metric_tag is None else {"shard": metric_tag}
        if service.registry is None:
            self.ready.fail(BindingBroken("no registry configured"))
        else:
            self._lookup_and_bind(None, 1)

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    @property
    def group_name(self) -> Optional[str]:
        return self._gc.group if self._gc else None

    #: how many times a rebind retries an unreachable registry before the
    #: binding is declared broken, and the backoff envelope between attempts
    #: (jittered so the clients a dead manager strands don't all hammer the
    #: registry — and then the same surviving member — in lockstep)
    REBIND = RetryPolicy(max_attempts=10, base_delay=0.25, factor=2.0, max_delay=1.5)

    def _lookup_and_bind(self, exclude: Optional[str], budget: int, attempt: int = 0) -> None:
        """Resolve the service's membership and form the client/server
        group around it — the first bind (``budget`` 1: an unadvertised
        service fails ``ready`` at once) and every rebind (``exclude`` the
        lost manager; the registry may be unreachable for a while, e.g. from
        the wrong side of a partition, so ``REBIND.max_attempts``)."""

        def on_lookup(fut: Future) -> None:
            if self._closed:
                return
            if fut.failed:
                if attempt + 1 < budget:
                    self.sim.schedule(
                        self.REBIND.delay(attempt + 1, self._backoff_rng),
                        self._lookup_and_bind,
                        exclude,
                        budget,
                        attempt + 1,
                    )
                else:
                    self._break(
                        BindingBroken(f"service {self.service_name!r} not advertised")
                    )
                return
            members = [
                m
                for m in self.service.registry.members_of(fut.result())
                if m != exclude
            ]
            if not members:
                self._break(BindingBroken("no surviving members"))
                return
            # outstanding calls are retried (same call numbers) once rebound
            for pending in self._pending.values():
                if pending not in self._queued:
                    self._queued.append(pending)
            self._bind_to(members)

        self.service.registry.lookup(self.service_name).add_done_callback(on_lookup)

    def _break(self, exc: BaseException) -> None:
        """The binding cannot (re)form: fail ``ready`` if it is still
        awaited, and every outstanding call."""
        self.ready.try_fail(exc)
        self._fail_outstanding(exc)

    def _bind_to(self, members: List[str]) -> None:
        self.servers = list(members)
        self._epoch_no = self.service.next_binding_epoch()
        if self.style == BindingStyle.CLOSED:
            targets = list(members)
            hint = members[0]
        else:
            targets = [self._choose_manager(members)]
            self.manager = targets[0]
            hint = targets[0]
        gc_name = f"cs:{self.client_id}:{self.service_name}:{self._epoch_no}"
        session = self.service.gcs.create_group(
            gc_name, self.config.replace(sequencer_hint=hint)
        )
        self._adopt(session)
        self._ask_to_join(session, targets, self.client_id, len(targets) + 1)

    def _ask_to_join(self, session, targets: List[str], contact: str, size: int) -> None:
        """Ask every server in ``targets`` to join ``session``'s group through
        ``contact``.  The binding is bound once all have answered and the
        view holds ``size`` members."""
        servant_id = server_servant_id(self.service_name)
        joins = [
            self.orb.invoke(
                IOR(target, "RootPOA", servant_id),
                "join_client_group",
                (session.group, contact, self.style),
                timeout=2.0,
            )
            for target in targets
        ]
        all_of(joins).add_done_callback(lambda f: self._on_joins_done(f, session, size))

    def _adopt(self, session) -> None:
        """Make ``session`` the client/server group of this binding."""
        self._gc = session
        self._bind_size = 0  # this session's joins have yet to answer
        session.on_deliver = self._on_gc_deliver
        session.on_view = self._on_gc_view
        session.on_hold = partial(report_hold, self._phases)
        session.left.add_done_callback(lambda _f: self._on_gc_closed(session))

    def _on_gc_closed(self, session) -> None:
        """A session the binding did not leave itself has ended: the group
        expelled this client (a manager whose CPU is busy past the suspicion
        timeout suspects the client first).  A manager loss: rebind or break."""
        if session is self._gc:
            self._bound = False
            self._rebind(exclude=self.manager)

    def _choose_manager(self, members: List[str]) -> str:
        if self.restricted:
            # restricted group optimisation: everyone uses the designated
            # manager — the server group's first member (its sequencer)
            return members[0]
        # unrestricted: "clients can select any member of the server group"
        # (§4.2) — prefer one on our own site (cheap client/server path),
        # otherwise spread clients across members deterministically
        network = self.orb.node.network
        if network is not None:
            my_site = self.orb.node.site
            for member in members:
                node = network.nodes.get(member)
                if node is not None and node.site == my_site:
                    return member
        index = sum(ord(ch) for ch in self.client_id) % len(members)
        return members[index]

    def _on_joins_done(self, fut: Future, session, size: int) -> None:
        if session is not self._gc:
            return  # closed, or already rebinding around this attempt
        if fut.failed:
            self._handle_bind_failure(fut.exception)
            return
        # every server asked in has answered: bound as soon as the view
        # holds them all — now, or at the install that completes it
        self._bind_size = size
        self._bind_if_complete()

    def _bind_if_complete(self) -> None:
        session = self._gc
        if session is None or session.view is None:
            return
        if len(session.view.members) < self._bind_size:
            return
        self._bind_size = 0
        self._bound = True
        self.ready.try_resolve(self)
        queued, self._queued = self._queued, []
        for pending in queued:
            self._send_invoke(pending)

    def _handle_bind_failure(self, exc: BaseException) -> None:
        if isinstance(exc, CommFailure) and self.style == BindingStyle.OPEN:
            self._rebind(exclude=self.manager)
            return
        self._break(exc)

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------
    def invoke(
        self,
        operation: str,
        args: Tuple = (),
        mode: Optional[str] = None,
        timeout: Optional[float] = None,
        parts: Any = None,
    ) -> Future:
        """Invoke the replicated service.

        Without a scheme on the binding this resolves with an
        :class:`InvocationResult` (or ``None`` for one-way sends), waiting
        for the replies ``mode`` names (default ``all``).  With one, the
        reply scheme fixed the mode at bind (naming one here is a
        :class:`~repro.errors.ConfigurationError`) and shapes the outcome —
        ``return_one`` resolves the chosen reply *value*, ``combine`` the
        reduced value, ``discard`` and ``forward`` resolve ``None``.
        ``parts`` (personalized scheme only) is the member->args scatter: a
        mapping or a ``member -> args`` callable; the positional ``args``
        become the default part for members outside the plan.  ``timeout``
        bounds the wait in virtual seconds.
        """
        if mode is None:
            mode = self._mode
        elif mode not in self._modes:
            raise ConfigurationError(
                f"mode={mode!r}: this binding's calls may name "
                f"{self._modes or 'no mode (its reply scheme fixed one at bind)'}"
            )
        if parts is not None or self._scatters:
            args = (self._scatter(args, parts),)
        if self._closed:
            done = Future()
            done.fail(BindingBroken("binding closed"))
            return done
        return self._start(operation, tuple(args), mode, timeout)

    def _scatter(self, args: Tuple, parts: Any) -> ScatterArgs:
        """A personalized call's argument: its member->args plan over the
        members the scatter must cover right now."""
        if not self._scatters:
            raise ConfigurationError("parts= requires a personalized scheme")
        if parts is None:
            raise ConfigurationError("personalized invocation requires parts=<member->args>")
        view = self._gc.view if self._gc is not None else None
        if self.style == BindingStyle.CLOSED and view is not None:
            targets = {m for m in view.members if m != self.client_id}
        else:
            targets = set(self.servers)
        if callable(parts):  # evaluated per member, in sorted order
            plan = {m: tuple(parts(m)) for m in sorted(targets)}
        else:
            plan = {m: tuple(part) for m, part in parts.items() if m in targets}
        self._scatter_width.record(len(plan))
        return ScatterArgs(plan, tuple(args))

    def _invoke_admitted(
        self, operation: str, args: Tuple, mode: str, timeout: Optional[float]
    ) -> Future:
        """The plan's entry with client-side admission: shed at the source
        on bounded inflight or the group's piggybacked pushback (open style:
        the manager's server-group pressure).  An admitted call frees its
        slot when its future settles, whichever way."""
        if mode == Mode.ONE_WAY:
            return self._invoke_plain(operation, args, mode, timeout)
        admission = self.admission
        pushback = self._gc.group_pushback() if self._gc is not None else 0.0
        hint = admission.try_admit(pushback)
        if hint is not None:
            done = Future(name=f"call:{operation}@{self.client_id}")
            done.fail(
                Overloaded(
                    f"{operation} shed at {self.client_id} (binding overloaded)",
                    retry_after=hint,
                )
            )
            return done
        future = self._invoke_plain(operation, args, mode, timeout)
        future.add_done_callback(lambda _call: admission.release())
        return future

    def _invoke_plain(
        self, operation: str, args: Tuple, mode: str, timeout: Optional[float]
    ) -> Future:
        future = Future(name=f"call:{operation}@{self.client_id}")
        call_no = self._next_call_no()
        pending = _PendingCall(call_no, operation, args, mode, future)
        self._invocations_counter.inc()
        pending.sent_at = self.sim.now
        if self._tracer.enabled:
            # explicit parent=None: every client invocation is its own trace
            # root; everything it causes (multicast, forwarding, execution,
            # replies) hangs off this span
            attrs = {
                "service": self.service_name,
                "operation": operation,
                "style": self.style,
                "mode": mode,
                "call_no": call_no,
            }
            attrs.update(self._span_attrs)
            pending.span = self._tracer.start_span(
                "invoke",
                kind="client",
                node=self.client_id,
                parent=None,
                attrs=attrs,
            )
        one_way = mode == Mode.ONE_WAY
        if not one_way:
            self._pending[call_no] = pending
            call_id = (self._caller, call_no)
            self.service.register_pending(call_id, self)
            self._phases.begin(call_id)
            if timeout is not None:
                pending.timeout = timeout
                self._arm(pending, timeout)
        if self._bound:
            self._send_invoke(pending)
        else:
            self._queued.append(pending)
        if one_way:
            future.resolve(None)  # nobody waits: settled once handed on
        return future

    def call(self, operation: str, args: Tuple = (), mode: str = Mode.FIRST,
             timeout: Optional[float] = None) -> Future:
        """Like :meth:`invoke` but resolves with the first reply *value*."""
        return self.invoke(operation, args, mode=mode, timeout=timeout).then(first_value)

    def _send_invoke(self, pending: _PendingCall) -> None:
        message = InvokeMsg(
            self._caller,
            pending.call_no,
            pending.operation,
            pending.args,
            pending.mode,
            False,
            self._reply_group,
        )
        tracer = self._tracer
        prev = tracer.ctx
        if tracer.enabled:
            # a None span under tracing means "head-sampled out": the send
            # then flows under UNSAMPLED, so no downstream site allocates
            # spans for this invocation
            tracer.ctx = UNSAMPLED if pending.span is None else pending.span
        try:
            self._gc.send(message)
        except FlowQueueFull:
            tracer.ctx = prev
            self._shed_locally(pending)
            return
        tracer.ctx = prev
        if pending.mode == Mode.ONE_WAY and pending.span is not None:
            tracer.end_span(pending.span, outcome="oneway")

    def _shed_locally(self, pending: _PendingCall) -> None:
        """The session's bounded send queue overflowed: shed at the source.

        Nothing reached the wire, so (like a manager-side shed) there is
        nothing to deduplicate — a retry under the same call number runs
        fresh and completes exactly once.
        """
        hint = shed_on_overflow(self.sim.obs.metrics)
        if pending.mode == Mode.ONE_WAY:
            self._tracer.end_span(pending.span, outcome="shed")
            return
        self._retry_or_fail(
            pending,
            Overloaded(
                f"call #{pending.call_no} ({pending.operation}) shed at "
                f"{self.client_id} (send queue full)",
                retry_after=hint,
            ),
            hint,
        )

    # ------------------------------------------------------------------
    # the call lifecycle's two exits: retry-or-fail, and teardown
    # ------------------------------------------------------------------
    def _retry_or_fail(
        self, pending: _PendingCall, failure: BaseException, hint: float = 0.0
    ) -> bool:
        """Retransmit ``pending`` after a backoff if the retry policy still
        allows it (returns True), else fail it with ``failure``.

        Retries always reuse the call number.  A call that timed out may
        have executed: the servers' reply caches turn its retransmission
        into a replay, not a re-run.  A call that was shed executed nowhere
        and nothing was cached for it, so its retry runs fresh — either way
        it completes exactly once.  ``hint`` is the shedder's retry-after
        (0: plain exponential backoff).
        """
        policy = self.retry_policy
        if (
            policy is not None
            and not self._closed
            and pending.attempts < policy.max_attempts
        ):
            pending.attempts += 1
            self._retry_counter.inc()
            pending.backoff = True
            self._arm(pending, policy.retry_after_delay(hint, pending.attempts, self._backoff_rng))
            return True
        self._drop(pending)
        self._reject(pending, failure)
        return False

    def _drop(self, pending: _PendingCall) -> None:
        """Forget an outstanding call, however it ends."""
        self._pending.pop(pending.call_no, None)
        if pending in self._queued:
            self._queued.remove(pending)
        self.service.unregister_pending((self._caller, pending.call_no))
        timer = pending.timer
        if timer is not None:  # the next call takes it over
            pending.timer = None
            timer.due = None
            self._spare_timers.append(timer)

    def _complete(self, pending: _PendingCall, replies: List[ReplyMsg]) -> None:
        """The replies the call's mode needs are in: account for the call,
        then settle its future with the outcome the plan shapes from them."""
        self._drop(pending)
        latency = self.sim.now - pending.sent_at
        for hist in self._latency_hists:
            hist.record(latency)
        # the completing member: the reply whose arrival satisfied the
        # invocation mode is the last one gathered (insertion order)
        completing = replies[-1].member if replies else None
        phases = self._phases.finish((self._caller, pending.call_no), completing)
        if phases is not None:
            hists = self._phase_hists
            for name, value in phases.items():
                hists[name].record(value)
        if pending.span is not None:
            self._tracer.end_span(pending.span, outcome="ok", replies=len(replies))
        try:
            outcome = self._shape(replies)
        except Exception as exc:  # noqa: BLE001 - servant or reducer error
            self._settle(pending, False, exc)
        else:
            self._settle(pending, True, outcome)

    def _reject(self, pending: _PendingCall, exc: BaseException) -> None:
        """Fail a dropped call, unless it already settled (a one-way call,
        settled when issued, or one met twice at teardown)."""
        if pending.future.done:
            return
        self._phases.discard((self._caller, pending.call_no))
        if pending.span is not None:
            self._tracer.end_span(pending.span, outcome="error", replies=0)
        self._settle(pending, False, exc)

    def _combine(self, replies: List[ReplyMsg]) -> Any:
        """Reply scheme ``combine``: fold the successful replies through the
        scheme's reducer, in member order."""
        by_member = InvocationResult(replies).by_member()
        if not by_member:
            raise ApplicationError("no successful replies to combine")
        self._reduce_inputs.record(len(by_member))
        return reduce_sorted(self.scheme.reducer, by_member)

    def _forward(self, pending: _PendingCall, ok: bool, value: Any) -> None:
        """Reply scheme ``forward``: hand the outcome to the scheme's
        ``forward_to`` node (a failure travels as ``ok=False`` with its
        text); the caller learns only that the call completed."""
        forwarded = ForwardedReply(
            self.client_id,
            self.service_name,
            pending.operation,
            pending.call_no,
            ok,
            value if ok else str(value),
        )
        self.orb.invoke(self._forward_sink, "deliver_forwarded", (forwarded,), oneway=True)
        self._forwarded_counter.inc()
        pending.future.resolve(None)

    def _arm(self, pending: _PendingCall, delay: float) -> None:
        """Arm the call's timer ``delay`` from now.  A call without one takes
        a spare an ended call left, so the kernel holds one timer entry per
        outstanding call, not one per call of the last timeout."""
        timer = pending.timer
        if timer is None:
            spares = self._spare_timers
            timer = spares.pop() if spares else Deadline(self.sim, self._on_call_timer)
            timer.args = (pending,)
            pending.timer = timer
        timer.arm(delay)

    def _on_call_timer(self, pending: _PendingCall) -> None:
        """A live call's timer fired: the call timed out (retry or fail it),
        or its retry's backoff ended (send it again, under its timeout if it
        has one: shed-triggered retries exist for calls without one too)."""
        if pending.backoff:
            pending.backoff = False
            if pending.timeout is not None:
                pending.timer.arm(pending.timeout)
            if self._bound:
                self._send_invoke(pending)
            elif pending not in self._queued:
                # mid-rebind: the new binding will flush the queue on ready
                self._queued.append(pending)
        elif not self._retry_or_fail(
            pending, CommFailure(f"call #{pending.call_no} ({pending.operation}) timed out")
        ):
            self._timeout_counter.inc()

    # ------------------------------------------------------------------
    # reply paths
    # ------------------------------------------------------------------
    def _on_gc_deliver(self, sender: str, payload: Any) -> None:
        """Open-style replies (ReplySets, sheds) coming back through the gc."""
        if isinstance(payload, ReplySet):
            pending = self._pending.get(payload.call_no)
            if pending is not None:
                self._complete(pending, payload.replies)
        elif isinstance(payload, ShedReply):
            # the manager refused the call before execution: back off and
            # retry under the same call number, or fail with Overloaded
            pending = self._pending.get(payload.call_no)
            if pending is not None and self._retry_or_fail(
                pending,
                Overloaded(
                    f"call #{payload.call_no} ({pending.operation}) shed by "
                    f"{payload.member}",
                    retry_after=payload.retry_after,
                ),
                payload.retry_after,
            ):
                self._retry_after_counter.inc()

    def on_direct_reply(self, reply: ReplyMsg) -> None:
        """Closed-style replies arriving point-to-point at the client sink."""
        pending = self._pending.get(reply.call_no)
        if pending is None:
            return
        pending.replies[reply.member] = reply
        self._check_satisfied(pending)

    def _check_satisfied(self, pending: _PendingCall) -> None:
        server_count = self._closed_server_count()
        if server_count <= 0:
            return
        needed = replies_needed(pending.mode, server_count)
        if len(pending.replies) < needed:
            return
        self._complete(pending, list(pending.replies.values()))

    def _closed_server_count(self) -> int:
        # before the view forms, go by the advertised membership; afterwards
        # the view is authoritative (it includes this client, hence the -1)
        if self._gc is None or self._gc.view is None:
            return len(self.servers)
        return len(self._gc.view.members) - 1

    # ------------------------------------------------------------------
    # view changes: failure masking (closed) and rebinding (open)
    # ------------------------------------------------------------------
    def _on_gc_view(self, view, joined: List[str], left: List[str]) -> None:
        if self._closed:
            return
        if self._bind_size:
            self._bind_if_complete()
        if self.style == BindingStyle.CLOSED:
            # a failed server is simply removed: outstanding calls now need
            # fewer replies (automatic failure masking, §2.1)
            for pending in list(self._pending.values()):
                self._check_satisfied(pending)
            return
        if self._bound and self.manager in left:
            # the smart proxy: rebind around a surviving member
            self._bound = False
            self._rebind(exclude=self.manager)

    def _rebind(self, exclude: Optional[str]) -> None:
        """Create a fresh client/server group around a surviving member."""
        self.rebinds += 1
        self._rebind_counter.inc()
        self._leave_gc()
        self._lookup_and_bind(exclude, self.REBIND.max_attempts)

    def _leave_gc(self) -> None:
        # forget the session first: its end must not read as an expulsion
        session, self._gc = self._gc, None
        if session is not None:
            session.leave()

    def _fail_outstanding(self, exc: BaseException) -> None:
        # forget every call before failing any: a failure callback may
        # re-enter the binding (a closed-loop client invoking again, the
        # shard layer closing this binding to remap).  A call both pending
        # and queued (mid-rebind) appears twice and fails once.
        doomed = list(self._pending.values()) + self._queued
        for pending in doomed:
            self._drop(pending)
        for pending in doomed:
            self._reject(pending, exc)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the binding and its client/server group."""
        if self._closed:
            return
        self._closed = True
        self._fail_outstanding(BindingBroken("binding closed"))
        self._leave_gc()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else ("bound" if self._bound else "binding")
        return f"<GroupBinding {self.service_name}@{self.client_id} {self.style} {state}>"
