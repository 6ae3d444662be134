"""Membership agreement: coordinator-driven flush (virtual synchrony).

View changes follow the Isis/NewTop pattern (§3): when the coordinator (the
first unsuspected member of the current view) learns of a join, leave, or
suspicion, it

1. multicasts ``FlushReq`` to the proposed membership;
2. members stop sending application messages and answer ``FlushOk`` with
   their unstable messages and the ordering tickets a survivor may lack;
3. the coordinator unions the contributions and multicasts ``ViewInstall``;
4. each member delivers the closing message set (in the ordering protocol's
   deterministic final order), installs the view, and resumes.

View updates are thereby atomic with respect to message delivery: every
survivor delivers the same closed set of old-view messages before the new
view.  A coordinator that crashes mid-flush is suspected by the survivors,
and the next-ranked member restarts the flush with a higher attempt number.
Partitions yield independent views on each side (partitionable membership).

**One transition function.**  ``MembershipEngine.step(peer, event)`` is the
whole protocol of one member: it reads and writes only the engine's state
(view, suspected set, pending changes, the coordinator's round) and yields
what to do, in order: ``("send", peer, msg)``, ``("arm",)`` the flush timer,
``("complete",)`` (the round is done: disarm it), ``("answer", req)`` (send
a ``FlushOk`` filled from the session), ``("install", install)``,
``("close",)``, and ``("suspect", member)``, ``("flush", attempt, size)``
and ``("timeout", missing)`` to count and record.  Its inputs are a routed
message of the six kinds with its peer, a :class:`Suspect`, a
:class:`Join`, the member's own ``LeaveReq``, and ``TIMEOUT``, ``CRASH``
and ``CLOSE``; a crashed or closed engine ignores them all.  The shell,
``GroupSession.membership_step``, applies each output before ``step`` goes
on, so a re-entrant input (a message to oneself, a leave from the view
upcall) lands where it always has.  The channel contract assumed: each pair
of members is a reliable FIFO stream, across a partition too (frames wait
for the heal); pairs interleave arbitrarily; a crashed member's frames in
flight arrive as a prefix of what it sent.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterator, List, Optional, Set, Tuple

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

__all__ = ["MembershipEngine", "Suspect", "Join", "TIMEOUT", "CRASH", "CLOSE", "MESSAGES"]

#: the local inputs that carry no data
TIMEOUT, CRASH, CLOSE = "timeout", "crash", "close"
#: the failure detector suspects ``members``, all at once (one flush covers them)
Suspect = namedtuple("Suspect", "members")
#: ask ``contact`` to sponsor this joining member
Join = namedtuple("Join", "contact")


class MembershipEngine:
    """One member's membership state machine: see the module docstring."""

    def __init__(self, me: str, group: str, view: Optional[GroupView], config):
        self.me = me
        self.group = group
        #: the installed view; None while joining
        self.view = view
        #: the group's configuration, carried in every ``ViewInstall``
        self.config = config
        #: members this one believes crashed (until the next install)
        self.suspected: Set[str] = set()
        self.stopped = False
        # pending changes known to me (acted on when I coordinate)
        self.pending_add: Set[str] = set()
        self.pending_remove: Set[str] = set()
        # coordinator-side flush state
        self.coordinating = False
        self.attempt = 0
        self._proposed: List[str] = []
        self._oks: Dict[str, FlushOk] = {}
        # member-side: last flush answered (view_id, attempt)
        self._answered: Tuple[int, int] = (-1, -1)

    def step(self, peer: str, event) -> Iterator[tuple]:
        """Take one input; the outputs come as the iterator is drained."""
        if self.stopped:
            return ()
        if event is TIMEOUT:
            return self._timed_out()
        if event is CLOSE or event is CRASH:
            self.stopped = True
            if event is CLOSE:
                self.coordinating = False
            return ()
        return _HANDLERS[type(event)](self, peer, event)

    # ------------------------------------------------------------------
    # role computation
    # ------------------------------------------------------------------
    def _coordinator(self) -> Optional[str]:
        """First member of the view not suspected of having crashed.  Leavers
        are *not* skipped: a coordinator may drive the flush that removes
        itself (§4.1's graceful departures)."""
        if self.view is None:
            return None
        for member in self.view.members:
            if member not in self.suspected:
                return member
        return None

    def _i_coordinate(self) -> bool:
        return self._coordinator() == self.me

    # ------------------------------------------------------------------
    # change intake
    # ------------------------------------------------------------------
    def _on_join(self, peer: str, join: Join):
        yield ("send", join.contact, JoinReq(self.group, self.me))

    def _on_join_req(self, peer: str, req: JoinReq):
        if self._i_coordinate():
            if req.member not in self.view.members:
                self.pending_add.add(req.member)
            yield from self._maybe_start_flush()
        else:
            yield from self._forward(req)

    def _on_leave_req(self, peer: str, req: LeaveReq):
        if self.view is not None and req.member not in self.view.members:
            return  # stale: already removed
        if self._i_coordinate():
            self.pending_remove.add(req.member)
            self.pending_add.discard(req.member)
            yield from self._maybe_start_flush()
        else:
            yield from self._forward(req)

    def _on_suspect(self, peer: str, event: Suspect):
        self.suspected.update(event.members)
        for member in event.members:
            if self.stopped:
                return  # the previous suspicion ended the membership
            yield ("suspect", member)
            if self.coordinating and member in self._proposed:
                # a member we are waiting on just died: restart without it
                self.pending_remove.add(member)
                self.coordinating = False
                yield from self._start_flush()
            elif self._i_coordinate():
                self.pending_remove.add(member)
                yield from self._maybe_start_flush()
            else:
                coordinator = self._coordinator()
                if coordinator is not None:
                    yield ("send", coordinator, SuspectMsg(self.group, member))

    def _on_suspect_msg(self, peer: str, msg: SuspectMsg):
        # only a member of our view may report: one that waited out a
        # partition may come from a member the group has left behind
        view = self.view
        if view is None or peer not in view.members or msg.suspect not in view.members:
            return  # stale: from outside the view, or already removed
        if self._i_coordinate():
            if msg.suspect != self.me:
                self.pending_remove.add(msg.suspect)
                yield from self._maybe_start_flush()
        else:
            yield from self._forward(msg)

    def _forward(self, msg):
        coordinator = self._coordinator()
        if coordinator is not None:
            yield ("send", coordinator, msg)

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------
    def _maybe_start_flush(self):
        pending = self.pending_add or self.pending_remove
        if pending and not self.coordinating and self._i_coordinate():
            yield from self._start_flush()

    def _start_flush(self):
        view = self.view
        survivors = [
            m
            for m in view.members
            if m not in self.pending_remove and m not in self.suspected
        ]
        proposed = survivors + sorted(self.pending_add - set(view.members))
        if not proposed:
            # everyone (including us) is leaving: the group simply dissolves
            yield ("close",)
            return
        self.coordinating = True
        self.attempt += 1
        self._proposed = proposed
        self._oks = {}
        yield ("flush", self.attempt, len(proposed))
        req = FlushReq(self.group, view.view_id, self.attempt, self.me)
        # everyone proposed answers, and we do last (a leaving coordinator
        # is not proposed but still hands over its messages)
        for member in proposed:
            if member != self.me:
                yield ("send", member, req)
        yield ("send", self.me, req)
        yield ("arm",)

    def _timed_out(self):
        if not self.coordinating:
            return
        # non-responders are presumed crashed: drop them and retry
        missing = [m for m in self._proposed if m not in self._oks]
        yield ("timeout", missing)
        for member in missing:
            self.suspected.add(member)
            self.pending_remove.add(member)
            self.pending_add.discard(member)
        self.coordinating = False
        yield from self._start_flush()

    def _on_flush_ok(self, peer: str, ok: FlushOk):
        if not self.coordinating:
            return
        if ok.view_id != self.view.view_id or ok.attempt != self.attempt:
            return
        self._oks[ok.sender] = ok
        if all(m in self._oks for m in self._proposed):
            yield from self._complete_flush()

    def _complete_flush(self):
        yield ("complete",)
        view = self.view
        union: Dict[Tuple[int, str, int], DataMsg] = {}
        tickets: Dict[Tuple[str, int], int] = {}
        for ok in self._oks.values():
            for msg in ok.unstable:
                union.setdefault(msg.msg_id, msg)
            for value, sender, gseq in ok.tickets:
                tickets.setdefault((sender, gseq), value)
        new_view = GroupView(self.group, view.view_id + 1, self._proposed, era=view.era)
        config = self.config
        hint = config.sequencer_hint
        if hint in view.members and hint not in self._proposed:
            # no failback: once the hinted member leaves, rank 0 sequences
            # for good, and a restarted incarnation rejoins as a backup
            config = config.replace(sequencer_hint="")
        install = ViewInstall(
            self.group,
            new_view,
            self.attempt,
            config,
            list(union.values()),
            [(v, s, g) for (s, g), v in tickets.items()],
        )
        # inform survivors, joiners, and voluntary leavers (so they can close)
        # — in proposed (view) order, then leavers: the send order shapes the
        # downstream event schedule, so it must not depend on set hashing
        leavers = sorted(self.pending_remove & set(view.members) - set(self._proposed))
        for member in self._proposed + leavers:
            if member != self.me:
                yield ("send", member, install)
        # reset coordinator state before applying our own install
        self.coordinating = False
        self.pending_add -= set(new_view.members)
        self.pending_remove.clear()
        yield ("send", self.me, install)

    # ------------------------------------------------------------------
    # member side
    # ------------------------------------------------------------------
    def _on_flush_req(self, peer: str, req: FlushReq):
        if self.view is not None and req.view_id != self.view.view_id:
            return
        if (req.view_id, req.attempt) <= self._answered:
            return
        self._answered = (req.view_id, req.attempt)
        self.attempt = max(self.attempt, req.attempt)
        yield ("answer", req)

    def _on_view_install(self, peer: str, install: ViewInstall):
        view, new = self.view, install.view
        if view is not None and (new.era != view.era or new.view_id <= view.view_id):
            return  # from a dead era of the group, or stale
        member = self.me in new.members
        if not member and view is None:
            return  # stale install from before our join; ours is coming
        self._answered = (-1, -1)
        self.attempt = 0
        if not member:
            yield ("close",)
            return
        self.config = install.config
        self.view = new
        self.suspected.clear()
        yield ("install", install)
        self.pending_add -= set(new.members)
        self.pending_remove = {m for m in self.pending_remove if m in new.members}
        # changes queued while flushing trigger the next round
        yield from self._maybe_start_flush()


_HANDLERS = {
    JoinReq: MembershipEngine._on_join_req,
    LeaveReq: MembershipEngine._on_leave_req,
    SuspectMsg: MembershipEngine._on_suspect_msg,
    FlushReq: MembershipEngine._on_flush_req,
    FlushOk: MembershipEngine._on_flush_ok,
    ViewInstall: MembershipEngine._on_view_install,
    Suspect: MembershipEngine._on_suspect,
    Join: MembershipEngine._on_join,
}

#: the protocol messages ``step`` takes from the channel
MESSAGES = (JoinReq, LeaveReq, SuspectMsg, FlushReq, FlushOk, ViewInstall)
