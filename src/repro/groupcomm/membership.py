"""Membership agreement: coordinator-driven flush (virtual synchrony).

View changes follow the Isis/NewTop pattern (§3): when the coordinator (the
first unsuspected member of the current view) learns of a join, leave, or
suspicion, it

1. multicasts ``FlushReq`` to the proposed membership;
2. members stop sending application messages and answer ``FlushOk`` with
   their unstable messages and known ordering tickets;
3. the coordinator unions the contributions and multicasts ``ViewInstall``;
4. each member delivers the closing message set (in the ordering protocol's
   deterministic final order), installs the view, and resumes.

View updates are thereby atomic with respect to message delivery: every
survivor delivers the same closed set of old-view messages before the new
view.  A coordinator that crashes mid-flush is suspected by the survivors,
and the next-ranked member restarts the flush with a higher attempt number.
Partitions yield independent views on each side (partitionable membership).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.groupcomm.messages import (
    DataMsg,
    FlushOk,
    FlushReq,
    JoinReq,
    LeaveReq,
    SuspectMsg,
    ViewInstall,
)
from repro.groupcomm.views import GroupView
from repro.sim.core import Deadline

__all__ = ["MembershipEngine"]


class MembershipEngine:
    """Per-session membership state machine."""

    def __init__(self, session):
        self.session = session
        self.sim = session.sim
        metrics = session.sim.obs.metrics
        self._flushes_started = metrics.counter("gc.membership.flushes_started")
        self._flushes_completed = metrics.counter("gc.membership.flushes_completed")
        self._flush_timeouts = metrics.counter("gc.membership.flush_timeouts")
        self._suspicions = metrics.counter("gc.membership.suspicions")
        # pending changes known to me (acted on when I coordinate)
        self.pending_add: Set[str] = set()
        self.pending_remove: Set[str] = set()
        # coordinator-side flush state
        self.coordinating = False
        self.attempt = 0
        self._proposed: List[str] = []
        self._oks: Dict[str, FlushOk] = {}
        self._flush_timer = Deadline(self.sim, self._flush_timed_out)
        # member-side: last flush answered (view_id, attempt)
        self._answered: Tuple[int, int] = (-1, -1)
        self.views_installed = 0

    # ------------------------------------------------------------------
    # role computation
    # ------------------------------------------------------------------
    def believed_coordinator(self) -> Optional[str]:
        """First member of the view not suspected of having crashed.

        Voluntary leavers are *not* skipped: a coordinator remains able to
        drive the flush that removes itself (§4.1's graceful departures).
        """
        view = self.session.view
        if view is None:
            return None
        suspected = self.session.detector.suspected
        for member in view.members:
            if member not in suspected:
                return member
        return None

    def _i_coordinate(self) -> bool:
        return self.believed_coordinator() == self.session.member_id

    # ------------------------------------------------------------------
    # change intake
    # ------------------------------------------------------------------
    def request_join(self, contact: str) -> None:
        """Joiner side: ask ``contact`` to sponsor our membership."""
        self.session.service.send_protocol(
            contact, JoinReq(self.session.group, self.session.member_id)
        )

    def request_leave(self) -> None:
        """Leaver side: route our departure to the coordinator."""
        self.on_leave_req(LeaveReq(self.session.group, self.session.member_id))

    def on_join_req(self, req: JoinReq) -> None:
        if self.session.state == "closed":
            return
        if self._i_coordinate():
            if req.member not in (self.session.view.members if self.session.view else []):
                self.pending_add.add(req.member)
            self.maybe_start_flush()
        else:
            self._forward(req)

    def on_leave_req(self, req: LeaveReq) -> None:
        if self.session.state == "closed":
            return
        if self.session.view is not None and req.member not in self.session.view.members:
            return  # stale: already removed
        if self._i_coordinate():
            self.pending_remove.add(req.member)
            self.pending_add.discard(req.member)
            self.maybe_start_flush()
        else:
            self._forward(req)

    def on_local_suspicion(self, member: str) -> None:
        """Our failure detector suspects ``member``."""
        if self.session.state == "closed":
            return
        self._suspicions.inc()
        self.session._flight.record(
            self.session.member_id, "suspect", self.session.group, member
        )
        self.session._tracer.event(
            "gc.suspicion", group=self.session.group, suspect=member
        )
        if self.coordinating and member in self._proposed:
            # a member we are waiting on just died: restart without it
            self.pending_remove.add(member)
            self.coordinating = False
            self._start_flush()
            return
        if self._i_coordinate():
            self.pending_remove.add(member)
            self.maybe_start_flush()
        else:
            coordinator = self.believed_coordinator()
            if coordinator is not None:
                self.session.service.send_protocol(
                    coordinator,
                    SuspectMsg(self.session.group, member),
                )

    def on_suspect_msg(self, msg: SuspectMsg) -> None:
        if self.session.state == "closed":
            return
        if self.session.view is not None and msg.suspect not in self.session.view.members:
            return  # stale: already removed
        if self._i_coordinate():
            if msg.suspect != self.session.member_id:
                self.pending_remove.add(msg.suspect)
                self.maybe_start_flush()
        else:
            self._forward(msg)

    def _forward(self, msg) -> None:
        coordinator = self.believed_coordinator()
        if coordinator is not None and coordinator != self.session.member_id:
            self.session.service.send_protocol(coordinator, msg)

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------
    def maybe_start_flush(self) -> None:
        if self.coordinating or self.session.view is None:
            return
        if not self.pending_add and not self.pending_remove:
            return
        if not self._i_coordinate():
            return
        self._start_flush()

    def _start_flush(self) -> None:
        session = self.session
        view = session.view
        survivors = [
            m
            for m in view.members
            if m not in self.pending_remove and m not in session.detector.suspected
        ]
        joiners = sorted(self.pending_add - set(view.members))
        proposed = survivors + joiners
        if not proposed:
            # everyone (including us) is leaving: the group simply dissolves
            session._close()
            return
        self.coordinating = True
        self.attempt += 1
        self._flushes_started.inc()
        session._flight.record(
            session.member_id,
            "flush_start",
            session.group,
            f"attempt={self.attempt} proposed={len(proposed)}",
        )
        self._proposed = proposed
        self._oks = {}
        req = FlushReq(session.group, view.view_id, self.attempt, session.member_id)
        # everyone proposed must answer; we answer ourselves directly
        for member in proposed:
            if member != session.member_id:
                session.service.send_protocol(member, req)
        if session.member_id in view.members or session.member_id in joiners:
            self.on_flush_req(req)
        self._flush_timer.arm(self.session.config.flush_timeout)

    def _flush_timed_out(self) -> None:
        if not self.coordinating:
            return
        missing = [m for m in self._proposed if m not in self._oks]
        if not missing:
            return
        self._flush_timeouts.inc()
        # non-responders are presumed crashed: drop them and retry
        for member in missing:
            self.session.detector.suspected.add(member)
            self.pending_remove.add(member)
            self.pending_add.discard(member)
        self.coordinating = False
        self._start_flush()

    def on_flush_ok(self, ok: FlushOk) -> None:
        if not self.coordinating:
            return
        if ok.view_id != self.session.view.view_id or ok.attempt != self.attempt:
            return
        self._oks[ok.sender] = ok
        if all(m in self._oks for m in self._proposed):
            self._complete_flush()

    def _complete_flush(self) -> None:
        session = self.session
        self._flushes_completed.inc()
        self._flush_timer.due = None
        union: Dict[Tuple[int, str, int], DataMsg] = {}
        tickets: Dict[Tuple[str, int], int] = {}
        for ok in self._oks.values():
            for msg in ok.unstable:
                union.setdefault(msg.msg_id, msg)
            for value, sender, gseq in ok.tickets:
                tickets.setdefault((sender, gseq), value)
        new_view = GroupView(
            session.group,
            session.view.view_id + 1,
            self._proposed,
            era=session.view.era,
        )
        install = ViewInstall(
            session.group,
            new_view,
            self.attempt,
            session.config,
            list(union.values()),
            [(v, s, g) for (s, g), v in tickets.items()],
        )
        # inform survivors, joiners, and voluntary leavers (so they can close)
        # — in proposed (view) order, then leavers: the send order shapes the
        # downstream event schedule, so it must not depend on set hashing
        proposed = set(self._proposed)
        leavers = sorted(self.pending_remove & set(session.view.members) - proposed)
        for member in list(self._proposed) + leavers:
            if member != session.member_id:
                session.service.send_protocol(member, install)
        # reset coordinator state before applying our own install
        self.coordinating = False
        self.pending_add -= set(new_view.members)
        self.pending_remove.clear()
        self.on_view_install(install)

    # ------------------------------------------------------------------
    # member side
    # ------------------------------------------------------------------
    def on_flush_req(self, req: FlushReq) -> None:
        session = self.session
        if session.state == "closed":
            return
        current_view_id = session.view.view_id if session.view else req.view_id
        if req.view_id != current_view_id:
            return
        if (req.view_id, req.attempt) <= self._answered:
            return
        self._answered = (req.view_id, req.attempt)
        self.attempt = max(self.attempt, req.attempt)
        session._flight.record(
            session.member_id,
            "flush",
            session.group,
            f"v{req.view_id} attempt={req.attempt} coord={req.coordinator}",
        )
        if session.state == "active":
            session.state = "flushing"
        unstable, ticket_list = session.collect_flush_state()
        ok = FlushOk(
            session.group, req.view_id, req.attempt, session.member_id, unstable, ticket_list
        )
        if req.coordinator == session.member_id:
            self.on_flush_ok(ok)
        else:
            session.service.send_protocol(req.coordinator, ok)

    def on_view_install(self, install: ViewInstall) -> None:
        session = self.session
        if session.state == "closed":
            return
        view, new = session.view, install.view
        if view is not None and (new.era != view.era or new.view_id <= view.view_id):
            return  # from a dead era of the group, or stale
        if session.member_id not in install.view.members:
            if session.state == "joining":
                return  # stale install from before our join; ours is coming
            self._answered = (-1, -1)
            self.attempt = 0
            session._close()
            return
        self._answered = (-1, -1)
        self.attempt = 0
        session.apply_view_install(install)
        self.views_installed += 1
        self.pending_add -= set(install.view.members)
        self.pending_remove = {
            m for m in self.pending_remove if m in install.view.members
        }
        # changes queued while flushing trigger the next round
        self.maybe_start_flush()
