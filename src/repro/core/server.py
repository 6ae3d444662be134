"""Server-side invocation layer: object group members and request managers.

One :class:`ObjectGroupServer` runs on each member node of a replicated
service.  It wires the application servant to group communication:

- membership in the **server group** (one per service), executing forwarded
  requests and multicasting replies within the group (§4.1 step iii);
- membership in **client/server groups** — closed ones spanning the whole
  server group, open ones pairing one client with this member as its
  **request manager** (§4.1 steps i/ii/iv);
- the **restricted group** and **asynchronous message forwarding**
  optimisations (§4.2), passive replication with per-request state updates,
  duplicate suppression via call numbers and a reply cache, and state
  transfer to joining members.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.messages import (
    InvokeMsg,
    ReplyMsg,
    ReplySet,
    ScatterArgs,
    ShedReply,
    StateSnapshot,
    StateUpdate,
    report_hold,
)
from repro.core.modes import Mode, ReplicationPolicy, replies_needed
from repro.core.registry import client_sink_id, server_servant_id
from repro.errors import ApplicationError, GroupError, NotMember
from repro.groupcomm.config import GroupConfig
from repro.groupcomm.flowcontrol import FlowQueueFull
from repro.obs.metrics import OnFirstUse
from repro.obs.tracer import UNSAMPLED
from repro.orb.ior import IOR
from repro.orb.orb import servant_operation
from repro.overload import AdmissionConfig, AdmissionController, shed_on_overflow
from repro.recovery.policy import RetryPolicy
from repro.sim.core import Deadline
from repro.sim.futures import Future

__all__ = ["ObjectGroupServer", "EXECUTION_OVERHEAD", "REPLY_CACHE_SIZE"]

#: CPU cost of dispatching one group-delivered invocation into the servant
#: (argument unpacking, upcall bookkeeping), on top of the servant's own
#: declared cost.
EXECUTION_OVERHEAD = 40e-6

#: Retained entries per duplicate-suppression cache (reply sets, own
#: replies, async-forwarding and group-to-group markers alike).
REPLY_CACHE_SIZE = 2048


def _remember(cache: Dict, key: Any, value: Any) -> None:
    """Insert into a duplicate-suppression cache, evicting the oldest
    entries beyond :data:`REPLY_CACHE_SIZE`."""
    cache[key] = value
    while len(cache) > REPLY_CACHE_SIZE:
        del cache[next(iter(cache))]


def _close_quietly(session) -> None:
    """Close ``session`` locally, never hearing from it again."""
    session.on_deliver = None
    session.on_view = None
    session._close()


class _Collector:
    """Request-manager state for one forwarded call."""

    __slots__ = ("mode", "reply_group", "replies")

    def __init__(self, mode: str, reply_group: str):
        self.mode = mode
        self.reply_group = reply_group
        self.replies: Dict[str, ReplyMsg] = {}


class _InvocationServant:
    """ORB-facing servant: what clients and peers invoke directly."""

    OP_COSTS = {"join_client_group": 30e-6, "receive_state": 50e-6}

    def __init__(self, server: "ObjectGroupServer"):
        self._server = server

    def join_client_group(self, group_name: str, contact: str, style: str) -> Future:
        return self._server._join_client_group(group_name, contact, style)

    def receive_state(self, snapshot: StateSnapshot) -> bool:
        self._server._receive_state(snapshot)
        return True


class ObjectGroupServer:
    """One member of a replicated object group."""

    def __init__(
        self,
        service,
        service_name: str,
        servant: Any,
        policy: str = ReplicationPolicy.ACTIVE,
        config: Optional[GroupConfig] = None,
        async_forwarding: bool = False,
        admission: Optional[AdmissionConfig] = None,
    ):
        if policy not in ReplicationPolicy.ALL_POLICIES:
            raise ValueError(f"unknown replication policy {policy!r}")
        self.service = service
        self.sim = service.sim
        self.orb = service.orb
        self.node = service.orb.node
        self.member_id = service.orb.node.name
        self.service_name = service_name
        self.servant = servant
        self.policy = policy
        self.config = config or GroupConfig.for_invocation()
        #: request managers answer wait_for_first locally and forward one-way
        self.async_forwarding = async_forwarding
        #: admission control at this request manager (None = admit all)
        self.admission: Optional[AdmissionController] = (
            AdmissionController(
                service.sim, admission, name=f"{service_name}@{self.member_id}"
            )
            if admission is not None
            else None
        )

        self.group = None  # the server group session (set by start())
        self.ready = Future(name=f"server-ready:{service_name}@{self.member_id}")
        self._client_groups: Dict[str, Any] = {}  # gc name -> session
        self._collectors: Dict[Tuple[str, int], _Collector] = {}
        self._g2g_seen: Dict[Tuple[str, int], int] = {}  # copies seen per call
        self._async_handled: Dict[Tuple[str, int], bool] = {}
        self._reply_cache: Dict[Tuple[str, int], ReplySet] = {}
        self._own_replies: Dict[Tuple[str, int], ReplyMsg] = {}
        obs = service.sim.obs
        self._tracer = obs.tracer
        self._flight = obs.flight
        self._phases = obs.phases
        self._executed_counter = obs.metrics.counter("server.requests_executed")
        self._dup_counter = obs.metrics.counter("server.duplicates_suppressed")
        self._cache_hit_counter = obs.metrics.counter("server.reply_cache_hits")
        self._g2g_dup_counter = obs.metrics.counter("server.g2g_duplicates")
        #: operation -> (execution cost, servant method or None), by the
        #: ORB's dispatch rule, resolved once per operation
        self._operations = OnFirstUse(self._resolve_operation)
        self._rejoin_counter = obs.metrics.counter("server.rejoins")
        self._rejoin_failed_counter = obs.metrics.counter("server.rejoin_failures")
        self._rejoin_rng = self.sim.rng(f"recovery.rejoin.{self.member_id}")
        self._restart_epoch = 0
        #: the member an in-flight rejoin is joining through (recovery
        #: tooling must not tear that contact down mid-join)
        self._rejoin_contact: Optional[str] = None
        self._servant_ref = self.orb.register(
            _InvocationServant(self), object_id=server_servant_id(service_name)
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def group_name(self) -> str:
        return f"svc:{self.service_name}"

    def _wire_server_group(self) -> None:
        self.group.on_deliver = self._on_group_deliver
        self.group.on_view = self._on_group_view
        self.group.on_hold = partial(report_hold, self._phases)

    def stop(self) -> Future:
        """Leave the server group (graceful shutdown of this member).

        Also ends a rejoin in flight: the loop is superseded (it counts no
        rejoin and resolves nothing) and a ``ready`` nobody resolved yet
        fails.  A session still joining is left as soon as its view
        installs; with no live group — between rejoin attempts, or after an
        exclusion — there is nobody to tell, so the member tears down
        locally.  Resolves once this member is out of the group.
        """
        if not self.ready.done:
            self.ready.fail(
                GroupError(f"{self.member_id} stopped before joining {self.group_name}")
            )
        if self.group is None or self.group.state == "closed":
            self._teardown()
            done = Future(name=f"server-stopped:{self.service_name}@{self.member_id}")
            done.resolve(None)
            return done
        self._restart_epoch += 1  # supersede any in-flight rejoin loop
        for session in list(self._client_groups.values()):
            session.leave()
        return self.group.leave()

    def _teardown(self) -> None:
        """Close every session of this incarnation locally and supersede any
        in-flight rejoin loop.  Nothing is announced: the peers remove this
        member through suspicion, as they would a crashed process."""
        self._restart_epoch += 1
        if self.group is not None:
            _close_quietly(self.group)
            self.group = None
        for session in list(self._client_groups.values()):
            _close_quietly(session)
        self._client_groups.clear()

    # ------------------------------------------------------------------
    # entering the group: one loop for a first start, a shard member and a
    # restart
    # ------------------------------------------------------------------
    #: attempts (registry lookup + join) before entering is declared
    #: failed, and the backoff envelope between them
    REJOIN = RetryPolicy(max_attempts=10, base_delay=0.2, factor=2.0, max_delay=2.0)
    #: lookups that name no contact but us before we re-create the group
    RECREATE_AFTER = 2

    #: the group is expected to exist (a restart, a shard member): entering
    #: it counts in ``server.rejoins``
    _rejoin = False

    def start(self) -> Future:
        """Enter the server group through the registry — the only way in.

        Every attempt looks the service up and acts on what the registry
        says (DESIGN §5 has the table): *unreachable* — retry after a
        jittered backoff; *not bound* — create the group and advertise it;
        *names only us* (our dead incarnation was the last coordinator, so
        nobody can answer a JoinReq and the entry will never refresh) —
        re-create after ``RECREATE_AFTER`` lookups, enough for a racing
        majority advertisement to land; *names others* — join through them
        in rotation, each join bounded by a timeout.  Creating is subject
        to :meth:`_may_create`, the one thing that varies between callers.
        Resolves ``self.ready`` (returned) with this server, or fails it
        after ``REJOIN.max_attempts``.
        """
        self._enter(0, self._restart_epoch)
        return self.ready

    def _may_create(self, attempt: int, others: List[str]) -> bool:
        """May this member create the group now, given the members
        ``others`` the registry names beside it?"""
        return not others

    def _enter(self, attempt: int, epoch: int) -> None:
        if epoch != self._restart_epoch:
            return  # stop() or a newer restart superseded this loop
        if attempt >= self.REJOIN.max_attempts:
            self._rejoin_contact = None
            self._rejoin_failed_counter.inc()
            self.ready.try_fail(
                GroupError(f"{self.member_id} could not enter {self.group_name}")
            )
            return
        if self.service.registry is None:
            self._create_group(recreated=False)  # nobody else can be named
            return
        lookup = self.service.registry.lookup(self.service_name)
        lookup.add_done_callback(lambda fut: self._on_lookup(fut, attempt, epoch))

    def _on_lookup(self, fut: Future, attempt: int, epoch: int) -> None:
        if epoch != self._restart_epoch:
            return
        bound = not fut.failed
        if not bound and not isinstance(fut.exception, ApplicationError):
            self._retry_enter(attempt, epoch)  # registry unreachable
            return
        named = self.service.registry.members_of(fut.result()) if bound else []
        others = [m for m in named if m != self.member_id]
        if self._may_create(attempt, others):
            if bound and attempt < self.RECREATE_AFTER:
                self._retry_enter(attempt, epoch)
            else:
                self._create_group(recreated=bound)
            return
        if not others:
            self._retry_enter(attempt, epoch)  # the creator has yet to advertise
            return
        contact = others[attempt % len(others)]
        self._rejoin_contact = contact
        session = self.service.gcs.join_group(self.group_name, contact)
        self.group = session
        self._wire_server_group()
        # the contact may still carry our dead incarnation in its view (a
        # crash shorter than the suspicion timeout): the JoinReq is ignored
        # until suspicion removes us, so the timeout must outlast it
        timer = Deadline(self.sim, self._on_join_timeout, session, epoch)
        timer.arm(self.config.suspicion_timeout + 2 * self.config.flush_timeout + 0.5)
        session.joined.add_done_callback(
            lambda f: self._on_joined(f, timer, attempt, epoch)
        )

    def _create_group(self, recreated: bool) -> None:
        """Create the server group with this member alone and advertise it.
        ``recreated``: a stale advertisement said the group had existed."""
        self.group = self.service.gcs.create_group(self.group_name, self.config)
        self._wire_server_group()
        self._advertise()
        self._entered("server.recreated" if recreated else None)

    def _on_joined(self, fut: Future, timer: Deadline, attempt: int, epoch: int) -> None:
        timer.due = None
        if epoch != self._restart_epoch:
            return
        if fut.failed:
            if not self.ready.done:
                self._retry_enter(attempt, epoch)
            return
        self._entered("server.rejoined" if self._rejoin else None)

    def _entered(self, rejoin_event: Optional[str]) -> None:
        self._rejoin_contact = None
        if rejoin_event is not None:
            self._rejoin_counter.inc()
            self._tracer.event(
                rejoin_event, member=self.member_id, group=self.group_name
            )
        self.ready.try_resolve(self)

    def _on_join_timeout(self, session, epoch: int) -> None:
        if epoch != self._restart_epoch:
            return
        if session.joined.done or self.group is not session:
            return
        # not _teardown(): that would supersede this very loop, and closing
        # the timed-out join (which fails session.joined) is what makes it
        # retry
        _close_quietly(session)
        self.group = None

    def _retry_enter(self, attempt: int, epoch: int) -> None:
        delay = self.REJOIN.delay(attempt + 1, self._rejoin_rng)
        self.sim.schedule(delay, self._enter, attempt + 1, epoch)

    def restart(self) -> Future:
        """Reconstruct this member's process state after a crash and rejoin.

        Models a cold process restart on a recovered node: every session of
        the dead incarnation is torn down locally (the survivors remove us
        through suspicion — we were silent, not polite), all volatile
        request state is dropped, and the member re-enters through
        :meth:`start`, as a fresh joiner would.  The reply caches survive
        the restart — they model a stable local reply log, which is what
        makes exactly-once hold even when *every* member restarts and no
        surviving coordinator can re-seed them — and the coordinator's
        :class:`StateSnapshot` still merges
        in whatever the group answered while we were down (local entries
        take precedence).  In-flight request state (collectors, async
        forwarding guards) is genuinely volatile and is dropped: a stale
        in-flight marker would suppress a client retry without ever
        producing a reply.  Resolves the returned future (also exposed
        as ``self.ready``) once the rejoined view is installed.
        """
        self._teardown()
        self._flight.record(self.member_id, "restart", self.group_name)
        self._collectors.clear()
        self._g2g_seen.clear()
        self._async_handled.clear()
        if self.admission is not None:
            # in-flight collectors died with the process: free their slots
            self.admission.reset()
        self._rejoin_contact = None
        self.ready = Future(name=f"server-rejoin:{self.service_name}@{self.member_id}")
        self._rejoin = True
        return self.start()

    @property
    def members(self) -> List[str]:
        return self.group.members if self.group else []

    @property
    def is_primary(self) -> bool:
        """Primary = the server group's sequencer (§4.2)."""
        return self.group is not None and self.group.sequencer == self.member_id

    # ------------------------------------------------------------------
    # server-group membership events
    # ------------------------------------------------------------------
    def _on_group_view(self, view, joined: List[str], left: List[str]) -> None:
        if view.coordinator == self.member_id:
            self._advertise()
            self._transfer_state_to(j for j in joined if j != self.member_id)
        if left:
            # recompute collector satisfaction: crashed members never reply
            for call_id in list(self._collectors):
                self._maybe_finish_collection(call_id)

    def _advertise(self) -> None:
        if self.service.registry is not None:
            self.service.registry.advertise(self.service_name, self.group.members)

    def _transfer_state_to(self, joiners) -> None:
        joiners = list(joiners)
        if not joiners:
            return
        get_state = getattr(self.servant, "get_state", None)
        state = get_state() if get_state is not None else None
        if state is None and not self._reply_cache and not self._own_replies:
            return
        snapshot = StateSnapshot(
            state, list(self._reply_cache.values()), list(self._own_replies.values())
        )
        for joiner in joiners:
            target = IOR(joiner, "RootPOA", server_servant_id(self.service_name))
            self.orb.invoke(target, "receive_state", (snapshot,), oneway=True)

    def _receive_state(self, snapshot: StateSnapshot) -> None:
        set_state = getattr(self.servant, "set_state", None)
        if set_state is not None and snapshot.servant_state is not None:
            set_state(snapshot.servant_state)
        # re-seed duplicate suppression with what the group already answered;
        # entries this member answered since (re)joining take precedence
        for cache, entries in (
            (self._reply_cache, snapshot.reply_sets),
            (self._own_replies, snapshot.own_replies),
        ):
            for entry in entries:
                if entry.call_id not in cache:
                    _remember(cache, entry.call_id, entry)

    # ------------------------------------------------------------------
    # client/server group management
    # ------------------------------------------------------------------
    def _join_client_group(self, group_name: str, contact: str, style: str) -> Future:
        """A client asks this member to join its client/server group.

        The style fixes how its requests are handled: in a closed group
        every server got the request directly and answers point-to-point;
        in an open one (a client monitor group on a group-to-group call
        included) this member is the request manager and the gathered
        replies travel back through the group itself."""
        if group_name in self._client_groups:
            done = Future()
            done.resolve(True)
            return done
        session = self.service.gcs.join_group(group_name, contact)
        self._client_groups[group_name] = session
        # relay the server group's pressure into this client/server group:
        # every frame back to the client advertises it, so a client-side
        # admission controller sees servant-side saturation end to end
        session.pushback_source = self._server_group_pushback
        # (anything else delivered here is a reply on its way to the client;
        # a request taken records its ordering wait here for the tiling)
        took, me = self._phases.on_delivered, self.member_id
        if style == "closed":
            def on_deliver(_sender: str, payload: Any) -> None:
                if isinstance(payload, InvokeMsg):
                    took(payload.call_id, me, session.stamps)
                    self._serve(payload, self._reply_directly)
        else:
            def on_deliver(_sender: str, payload: Any) -> None:
                if isinstance(payload, InvokeMsg):
                    took(payload.call_id, me, session.stamps)
                    self._handle_request(payload, group_name)

        def on_view(_view, _joined, left) -> None:
            if contact in left:
                # the client is gone: the client/server group is disbanded
                gone = self._client_groups.pop(group_name, None)
                if gone is not None:
                    gone.leave()

        session.on_deliver = on_deliver
        session.on_view = on_view
        return session.joined.then(lambda _session: True)

    def _server_group_pushback(self) -> float:
        if self.group is not None and self.group.state != "closed":
            return self.group.group_pushback()
        return 0.0

    # -- the replica stage: dedupe -> execute -> log -> reply ---------------
    def _serve(self, invoke: InvokeMsg, reply_to: Callable[[ReplyMsg], None]) -> None:
        """Answer a request that reached this replica, at most once.

        ``reply_to`` is how the reply travels: point-to-point to the client
        (closed groups) or multicast within the server group (forwarded
        requests, §4.1 iii).
        """
        logged = self._own_replies.get(invoke.call_id)
        if logged is not None:
            # a retried or re-forwarded call: replay, don't re-run
            self._dup_counter.inc()
            if invoke.mode != Mode.ONE_WAY:
                reply_to(logged)
            return
        if self.policy == ReplicationPolicy.ACTIVE or self.is_primary:
            self._execute(
                invoke, lambda reply: self._after_execution(invoke, reply, reply_to)
            )
        # else a passive backup: the primary's StateUpdate will follow

    def _after_execution(
        self, invoke: InvokeMsg, reply: ReplyMsg, reply_to: Callable[[ReplyMsg], None]
    ) -> None:
        if invoke.forwarded or invoke.mode != Mode.ONE_WAY:
            # logged before anything is sent: if this member was removed from
            # the view while the servant ran nobody hears the reply now, but
            # after a rejoin a re-forwarded duplicate replays it instead of
            # re-executing.  Forwarded one-way calls are logged too — with
            # async forwarding they stand for a wait_for_first call that the
            # client may retry through another manager.
            _remember(self._own_replies, invoke.call_id, reply)
        if self.policy == ReplicationPolicy.PASSIVE:
            self._broadcast_state_update(invoke, reply)
        if invoke.mode != Mode.ONE_WAY:
            reply_to(reply)

    def _reply_directly(self, reply: ReplyMsg) -> None:
        target = IOR(reply.client, "RootPOA", client_sink_id(reply.client))
        self.orb.invoke(target, "deliver_reply", (reply,), oneway=True)

    def _multicast_executed(self, payload: Any) -> None:
        """Multicast a reply or state update within the server group (§4.1 iii).

        The work behind it already ran, so a bounded flow queue must not
        refuse it.  A member excluded (or restarted) while a servant
        execution was in flight drops the send rather than raise out of the
        completion callback.
        """
        if self.group is not None and self.group.state != "closed":
            self.group.send(payload, admitted=True)

    # -- the request-manager stage: dedupe -> admit -> collect -> forward ---
    def _handle_request(self, invoke: InvokeMsg, reply_group: str) -> None:
        """We are this call's request manager: for an open client/server
        group, or for a client monitor group on a group-to-group call.  The
        gathered replies travel back through ``reply_group``."""
        call_id = invoke.call_id
        if invoke.reply_group:
            # every gx member multicasts its own copy (§4.3), and again on
            # every retry (a shed call is retried by all of gx): handle the
            # first copy of each round
            seen = self._g2g_seen.get(call_id, 0)
            _remember(self._g2g_seen, call_id, seen + 1)
            monitor = self._client_groups.get(reply_group)
            callers = len(monitor.members) - 1 if monitor is not None else 1
            if seen % max(callers, 1):
                self._g2g_dup_counter.inc()
                return
        cached = self._reply_cache.get(call_id)
        if cached is not None:
            # retried call (client rebind after a manager failure): replay
            self._cache_hit_counter.inc()
            self._tracer.event(
                "manager.reply_cache_hit", client=invoke.client, call_no=invoke.call_no
            )
            self._send_reply_set(reply_group, cached)
            return
        if call_id in self._collectors or call_id in self._async_handled:
            # a retried call still being collected (or answered locally with
            # async forwarding): the ReplySet is on its way — forwarding
            # again would re-run the servants
            self._dup_counter.inc()
            return
        if invoke.mode == Mode.ONE_WAY:
            self._forward(invoke, Mode.ONE_WAY, reply_group)
            return
        # admission control: decide *before* the re-multicast and before
        # anything is cached, so a shed call is never partially executed and
        # a later retry under the same call number runs fresh, exactly once.
        # An admitted call holds its inflight slot until it is answered or
        # refused by a full flow queue.
        if self.admission is not None:
            pushback = self.group.group_pushback() if self.group is not None else 0.0
            hint = self.admission.try_admit(pushback)
            if hint is not None:
                self._send_shed(reply_group, invoke, hint)
                return
        if self.async_forwarding and invoke.mode == Mode.FIRST:
            # §4.2: answer locally, forward one-way — no reply gathering.
            # Mark the call so our own loopback of the forward is skipped.
            _remember(self._async_handled, call_id, True)
            if not self._forward(invoke, Mode.ONE_WAY, reply_group):
                del self._async_handled[call_id]
                return
            self._execute(
                invoke,
                lambda reply: self._finish_async_forwarded(reply_group, invoke, reply),
            )
            return
        self._collectors[call_id] = _Collector(invoke.mode, reply_group)
        if not self._forward(invoke, invoke.mode, reply_group):
            del self._collectors[call_id]

    def _forward(self, invoke: InvokeMsg, mode: str, reply_group: str) -> bool:
        """Re-issue the client's request inside the server group (§4.1 ii).

        The one place a request enters the server group.  Returns False if
        a bounded flow queue (``flow_max_queue``) refused the re-multicast,
        or the server-group session has closed (this member was expelled):
        nothing was forwarded, so nothing executed anywhere, and the call
        is shed (a one-way call is counted and dropped; any other gives
        back its inflight slot).
        """
        # the paper's m2: the request manager re-multicasts into the server
        # group; the ambient span here is the delivery of the client's m1
        self._tracer.event(
            "manager.forward", client=invoke.client, call_no=invoke.call_no, mode=mode
        )
        forwarded = InvokeMsg(
            invoke.client,
            invoke.call_no,
            invoke.operation,
            invoke.args,
            mode,
            True,
            "",
        )
        try:
            self.group.send(forwarded)
        except (FlowQueueFull, NotMember):
            hint = shed_on_overflow(self.sim.obs.metrics)
            if invoke.mode != Mode.ONE_WAY:
                if self.admission is not None:
                    self.admission.release()
                self._send_shed(reply_group, invoke, hint)
            return False
        return True

    def _finish_async_forwarded(
        self, reply_group: str, invoke: InvokeMsg, reply: ReplyMsg
    ) -> None:
        if self.policy == ReplicationPolicy.PASSIVE:
            self._broadcast_state_update(invoke, reply)
        self._answer(invoke.call_id, reply_group, [reply])

    def _answer(
        self, call_id: Tuple[str, int], reply_group: str, replies: List[ReplyMsg]
    ) -> None:
        """The call is decided: give back its inflight slot, cache its reply
        set and send it to the client."""
        if self.admission is not None:
            self.admission.release()
        reply_set = ReplySet(call_id[0], call_id[1], replies)
        _remember(self._reply_cache, call_id, reply_set)
        self._send_reply_set(reply_group, reply_set)

    # -- shedding: refuse before execution, hint the client when to retry --
    def _send_shed(self, reply_group: str, invoke: InvokeMsg, hint: float) -> None:
        session = self._client_groups.get(reply_group)
        if session is not None and session.state != "closed":
            self._tracer.event(
                "manager.shed",
                client=invoke.client,
                call_no=invoke.call_no,
                retry_after=hint,
            )
            self._flight.record(
                self.member_id, "shed", reply_group,
                f"{invoke.client}#{invoke.call_no}",
            )
            session.send(
                ShedReply(invoke.client, invoke.call_no, self.member_id, hint),
                admitted=True,
            )

    def _send_reply_set(self, reply_group: str, reply_set: ReplySet) -> None:
        session = self._client_groups.get(reply_group)
        if session is not None and session.state != "closed":
            # the paper's m6: the gathered replies travel back to the client
            self._tracer.event(
                "manager.reply_set",
                client=reply_set.client,
                call_no=reply_set.call_no,
                replies=len(reply_set.replies),
            )
            session.send(reply_set, admitted=True)

    # ------------------------------------------------------------------
    # deliveries from the server group
    # ------------------------------------------------------------------
    def _on_group_deliver(self, sender: str, payload: Any) -> None:
        if isinstance(payload, InvokeMsg):
            self._phases.on_delivered(payload.call_id, self.member_id, self.group.stamps)
            # a forwarded request — unless we answered it locally before
            # forwarding it ourselves (§4.2)
            if payload.call_id not in self._async_handled:
                self._serve(payload, self._multicast_executed)
        elif isinstance(payload, ReplyMsg):
            self._collect_reply(payload)
        elif isinstance(payload, StateUpdate):
            self._apply_state_update(sender, payload)

    def _collect_reply(self, reply: ReplyMsg) -> None:
        collector = self._collectors.get(reply.call_id)
        if collector is None:
            return
        collector.replies[reply.member] = reply
        self._maybe_finish_collection(reply.call_id)

    def _maybe_finish_collection(self, call_id: Tuple[str, int]) -> None:
        collector = self._collectors.get(call_id)
        if collector is None:
            return
        size = len(self.group.members) if self.group is not None else 1
        responders = size if self.policy == ReplicationPolicy.ACTIVE else 1
        needed = min(replies_needed(collector.mode, size), responders)
        if len(collector.replies) < needed:
            return
        del self._collectors[call_id]
        self._answer(call_id, collector.reply_group, list(collector.replies.values()))

    # ------------------------------------------------------------------
    # passive replication
    # ------------------------------------------------------------------
    def _broadcast_state_update(self, invoke: InvokeMsg, reply: ReplyMsg) -> None:
        get_state = getattr(self.servant, "get_state", None)
        state = get_state() if get_state is not None else None
        self._multicast_executed(
            StateUpdate(invoke.client, invoke.call_no, state, reply)
        )

    def _apply_state_update(self, sender: str, update: StateUpdate) -> None:
        if sender == self.member_id:
            return
        set_state = getattr(self.servant, "set_state", None)
        if set_state is not None and update.state is not None:
            set_state(update.state)
        _remember(self._own_replies, (update.client, update.call_no), update.reply)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _resolve_operation(self, operation: str) -> Tuple[float, Any]:
        cost, method = servant_operation(self.servant, operation)
        return EXECUTION_OVERHEAD + cost, method

    def _execute(self, invoke: InvokeMsg, done) -> None:
        """Run the servant operation on this node's CPU, then call ``done``."""
        cost = self._operations[invoke.operation][0]
        now = self.sim.now
        tracer = self._tracer
        if tracer.enabled and tracer.ctx is not UNSAMPLED:
            # the paper's m3: the replica executes the invocation.  The span
            # stays ambient while the servant runs, so the reply multicast
            # (m4) issued from ``done`` becomes its child.
            span = tracer.start_span(
                "server.execute",
                kind="server",
                node=self.member_id,
                attrs={
                    "operation": invoke.operation,
                    "client": invoke.client,
                    "call_no": invoke.call_no,
                },
            )
            if span is not None:
                prev = tracer.ctx
                tracer.ctx = span
                self.node.execute(cost, self._run_servant, span, invoke, done, now)
                tracer.ctx = prev
                return
        self.node.execute(cost, self._run_servant, None, invoke, done, now)

    def _run_servant(self, span, invoke: InvokeMsg, done, submitted: float) -> None:
        # node.execute scheduled us at the end of the busy window, so "now"
        # is the execution completion time for this servant run
        self._phases.on_executed(invoke.call_id, self.member_id, submitted)
        self._executed_counter.inc()
        method = self._operations[invoke.operation][1]
        if method is None:
            ok, value = False, f"bad operation {invoke.operation!r}"
        else:
            args = invoke.args
            if len(args) == 1 and isinstance(args[0], ScatterArgs):
                # personalized invocation: every member got the same
                # multicast, each executes its own slice of the argument scatter
                args = args[0].part_for(self.member_id)
            try:
                ok, value = True, method(*args)
            except Exception as exc:  # noqa: BLE001 - propagate to the client
                ok, value = False, str(exc)
        done(ReplyMsg(invoke.client, invoke.call_no, self.member_id, ok, value))
        if span is not None:
            self._tracer.end_span(span)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ObjectGroupServer {self.service_name}@{self.member_id} {self.policy}>"
