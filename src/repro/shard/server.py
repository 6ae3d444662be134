"""Server side of sharded subgroups: one parent membership, N shard groups.

A sharded service is one *parent* object group (carrying the service's
registry identity, failure detection, and crash/rejoin path — all the
existing :class:`~repro.core.server.ObjectGroupServer` machinery) plus
``num_shards`` ordinary sub-services named ``svc#0`` … ``svc#N-1``.  Each
shard sub-service is a full object group of its own — its own sequencer,
its own flush rounds, its own state transfer and reply caches — so shards
order and recover independently and a call addressed to one shard causes
zero protocol work in the others (FlexCast's genuineness property).

On every parent view install, *every* member independently recomputes the
shard layout (a pure function of the sorted membership, see
:mod:`repro.shard.layout`) and reconciles its local shard participation:

- newly assigned shards are joined (or created, by the shard's first
  assigned member) through the registry, riding the server's existing
  discovery/join/state-transfer path;
- shards this member no longer serves are *retired*, not dropped: the
  outgoing member keeps serving, and its retirement ends in one of three
  ways.  It leaves gracefully at the instant of the shard view install that
  brings a newly-assigned member (so the coordinator's state snapshot has
  somewhere to land), or when its one deadline timer
  (``3 × flush_timeout + 1 s``) fires first; if its shard session closes
  first (an exclusion), it tears down at once.  Nothing polls: the install,
  the timer and the session's close each call in.

If the membership cannot satisfy the layout the recompute raises
:class:`~repro.errors.ProvisioningError`; the previous assignment stays in
force (degraded) and the next view change retries — so a sharded group is
simply *unprovisioned* until enough members have joined.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.modes import ReplicationPolicy
from repro.core.server import ObjectGroupServer
from repro.errors import GroupError, ProvisioningError
from repro.groupcomm.config import GroupConfig
from repro.shard.layout import round_robin, shard_service_name
from repro.sim.core import ScheduledEvent
from repro.sim.futures import Future

__all__ = ["ShardedServer"]


class _ShardDirectory:
    """The parent group's servant: membership bookkeeping only, no state
    (so the parent-level convergence digest is trivially equal everywhere)."""

    OP_COSTS = {"ping": 5e-6}

    def ping(self) -> bool:
        return True


class _ShardMember(ObjectGroupServer):
    """One shard sub-service member.  Only the shard's *anchor* (its first
    assigned member) may create the shard group: a late member waits for
    the anchor's advertisement instead of racing it."""

    #: the anchor re-creates the group after this many join attempts
    #: against advertised-but-unresponsive members — the whole-shard-crashed
    #: case, where the registry's last advertisement names only dead
    #: incarnations and would otherwise pin the join loop forever
    ANCHOR_RECREATE_AFTER = 3

    #: kept current by the owner's layout recompute
    anchor = False
    #: a shard's members join a group the layout says exists
    _rejoin = True
    #: set by the owner while it retires this member: told which members
    #: each install of the shard's view brought
    on_joins: Optional[Callable[[List[str]], None]] = None

    def _may_create(self, attempt: int, others: List[str]) -> bool:
        return self.anchor and (not others or attempt >= self.ANCHOR_RECREATE_AFTER)

    def _on_group_view(self, view, joined: List[str], left: List[str]) -> None:
        super()._on_group_view(view, joined, left)
        if self.on_joins is not None:
            self.on_joins(joined)


class ShardedServer(ObjectGroupServer):
    """One node's participation in a sharded service: it *is* the parent
    group's member (so ``ready``, ``group``, ``restart()`` and the recovery
    tooling work as for any server) and hosts one :class:`_ShardMember`
    per shard the layout assigns it."""

    def __init__(
        self,
        service,
        service_name: str,
        servant_factory: Callable[[], Any],
        num_shards: int,
        min_members_per_shard: int = 1,
        policy: str = ReplicationPolicy.ACTIVE,
        config: Optional[GroupConfig] = None,
        async_forwarding: bool = False,
        admission=None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if min_members_per_shard < 1:
            raise ValueError("min_members_per_shard must be >= 1")
        if not callable(servant_factory):
            raise ValueError("serve_sharded needs a servant *factory* (one fresh "
                             "servant per hosted shard), not a servant instance")
        # the parent group is plain and active; one config serves it and
        # (sequencer aside) every shard
        super().__init__(service, service_name, _ShardDirectory(), config=config)
        self.servant_factory = servant_factory
        self.num_shards = num_shards
        self.min_members_per_shard = min_members_per_shard
        #: what every hosted shard member is built with
        self._shard_options = dict(
            policy=policy, async_forwarding=async_forwarding, admission=admission
        )
        #: shard_no -> local ObjectGroupServer for shards this member hosts
        self.shard_servers: Dict[int, ObjectGroupServer] = {}
        #: the last successfully computed assignment (None = unprovisioned)
        self.assignment: Optional[List[List[str]]] = None
        self.layout_version = 0
        #: shard_no -> the one timer that ends its retirement
        self._retiring: Dict[int, ScheduledEvent] = {}

        metrics = service.sim.obs.metrics
        self._recompute_counter = metrics.counter("shard.layout.recomputes")
        self._change_counter = metrics.counter("shard.layout.changes")
        self._provision_counter = metrics.counter("shard.provisioning_failures")
        self._started_counter = metrics.counter("shard.members.started")
        self._retired_counter = metrics.counter("shard.members.retired")

    @property
    def provisioned(self) -> bool:
        return self.assignment is not None

    @property
    def hosted_shards(self) -> List[int]:
        return sorted(self.shard_servers)

    def shard_server(self, shard_no: int) -> Optional[ObjectGroupServer]:
        return self.shard_servers.get(shard_no)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _create_group(self, recreated: bool) -> None:
        super()._create_group(recreated)
        # the creator's initial view is installed inside create_group, before
        # callbacks are wired — recompute from the membership directly
        self._recompute_layout(self.group.members)

    def stop(self) -> Future:
        """Graceful shutdown: leave every hosted shard, then the parent."""
        for shard_no in list(self._retiring):
            self._cancel_retirement(shard_no)
        for shard_no in list(self.shard_servers):
            self._finish_retirement(shard_no, graceful=True)
        return super().stop()

    def restart(self) -> Future:
        """Crash recovery: tear down the dead incarnation's shard members
        and rejoin the parent; the rejoined view's layout recompute then
        re-establishes shard participation (with state transfer from each
        shard's surviving members)."""
        for shard_no in list(self._retiring):
            self._cancel_retirement(shard_no)
        for shard_no in list(self.shard_servers):
            self._teardown_shard(shard_no)
        self.assignment = None
        return super().restart()

    # ------------------------------------------------------------------
    # layout recompute (every parent view install, on every member)
    # ------------------------------------------------------------------
    def _on_group_view(self, view, joined: List[str], left: List[str]) -> None:
        super()._on_group_view(view, joined, left)
        self._recompute_layout(view.members)

    def _recompute_layout(self, members: Sequence[str]) -> None:
        self._recompute_counter.inc()
        try:
            assignment = round_robin(
                members, self.num_shards, self.min_members_per_shard
            )
        except ProvisioningError as exc:
            self._provision_counter.inc()
            self._flight.record(
                self.member_id, "shard.unprovisioned", self.group_name, str(exc)
            )
            return  # keep the previous assignment (degraded) until members return
        if assignment != self.assignment:
            self.layout_version += 1
            self._change_counter.inc()
            self._flight.record(
                self.member_id,
                "shard.layout",
                self.group_name,
                f"v{self.layout_version} sizes={[len(a) for a in assignment]}",
            )
        self.assignment = assignment
        self._apply_layout()

    def _apply_layout(self) -> None:
        for shard_no, assigned in enumerate(self.assignment):
            hosted = self.shard_servers.get(shard_no)
            if self.member_id in assigned:
                self._cancel_retirement(shard_no)  # reassigned: keep serving
                if hosted is None:
                    self._start_shard_member(shard_no, assigned)
                else:
                    hosted.anchor = assigned[0] == self.member_id
            elif hosted is not None and shard_no not in self._retiring:
                self._begin_retirement(shard_no)

    # ------------------------------------------------------------------
    # joining a shard
    # ------------------------------------------------------------------
    def _start_shard_member(self, shard_no: int, assigned: List[str]) -> None:
        sub_name = shard_service_name(self.service_name, shard_no)
        if sub_name in self.service.servers:
            raise GroupError(f"{self.member_id} already hosts {sub_name!r}")
        server = _ShardMember(
            self.service,
            sub_name,
            self.servant_factory(),
            # each shard orders through its own anchor (first assigned member)
            config=self.config.replace(sequencer_hint=assigned[0]),
            **self._shard_options,
        )
        self.shard_servers[shard_no] = server
        self.service.servers[sub_name] = server
        self._started_counter.inc()
        self._flight.record(self.member_id, "shard.join", f"svc:{sub_name}")
        server.anchor = assigned[0] == self.member_id
        server.start()

    # ------------------------------------------------------------------
    # leaving a shard: retiring handover
    # ------------------------------------------------------------------
    def _retire_timeout(self) -> float:
        return 3 * self.config.flush_timeout + 1.0

    def _begin_retirement(self, shard_no: int) -> None:
        self._flight.record(
            self.member_id,
            "shard.retiring",
            f"svc:{shard_service_name(self.service_name, shard_no)}",
        )
        server = self.shard_servers[shard_no]
        session = server.group
        if session is None or session.state == "closed":
            # excluded (or torn down) underneath us: nothing left to hand over
            self._finish_retirement(shard_no, graceful=False)
            return
        self._retiring[shard_no] = self.sim.schedule(
            self._retire_timeout(), self._retirement_due, shard_no
        )
        server.on_joins = lambda joined: self._on_retiring_joins(shard_no, joined)
        session.left.add_done_callback(lambda _f: self._on_retiring_closed(shard_no))

    def _on_retiring_joins(self, shard_no: int, joined: List[str]) -> None:
        """A shard view install during retirement.  One that brings a
        member the layout assigns the shard ends the handover at this
        instant: the timer is pulled forward to now rather than leaving from
        inside the install (a leave there could start a flush mid-install)."""
        if any(member in self.assignment[shard_no] for member in joined):
            self._retiring[shard_no].cancel()
            self._retiring[shard_no] = self.sim.schedule(0.0, self._retirement_due, shard_no)

    def _retirement_due(self, shard_no: int) -> None:
        self._cancel_retirement(shard_no)
        self._finish_retirement(shard_no, graceful=True)

    def _on_retiring_closed(self, shard_no: int) -> None:
        """The shard session closed (an exclusion, a timed-out join): no
        handover is left to wait for."""
        if self._cancel_retirement(shard_no):
            self._finish_retirement(shard_no, graceful=False)

    def _cancel_retirement(self, shard_no: int) -> bool:
        """Stop waiting on ``shard_no``'s handover; False if none was."""
        timer = self._retiring.pop(shard_no, None)
        if timer is None:
            return False
        timer.cancel()
        self.shard_servers[shard_no].on_joins = None
        return True

    def _finish_retirement(self, shard_no: int, graceful: bool) -> None:
        server = self.shard_servers.pop(shard_no, None)
        if server is None:
            return
        sub_name = shard_service_name(self.service_name, shard_no)
        if graceful:
            server.stop()
        else:
            server._teardown()
        self.service.servers.pop(sub_name, None)
        self.service.orb.deactivate(server._servant_ref)
        self._retired_counter.inc()
        self._flight.record(self.member_id, "shard.retired", f"svc:{sub_name}")

    def _teardown_shard(self, shard_no: int) -> None:
        """Crash-path teardown: drop the dead incarnation's sessions."""
        server = self.shard_servers.pop(shard_no, None)
        if server is None:
            return
        server._teardown()
        self.service.servers.pop(
            shard_service_name(self.service_name, shard_no), None
        )
        self.service.orb.deactivate(server._servant_ref)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        hosted = ",".join(str(n) for n in self.hosted_shards) or "-"
        return (
            f"<ShardedServer {self.service_name}@{self.member_id} "
            f"shards[{hosted}] v{self.layout_version}>"
        )
