"""Time-silence and failure suspicion (§3), quiescence-aware.

One detector per group session, with two timers:

- the heartbeat *tick* sends a NULL ("I am alive") message if the member
  has been silent for its *committed* heartbeat interval; and
- the *watch* fires at the earliest deadline of an unsuspected member and
  suspects each member silent past its own: at the deadline, not a poll.

In a **lively** group both run for the group's lifetime.  In an
**event-driven** group they act only while application messages are
outstanding in the group — while it is quiesced, the tick sends nothing,
the watch suspects no one, and both refresh the baselines so that arming
later cannot suspect at once.

Adaptive suppression (``LivelinessConfig.adaptive``, lively groups only):
while the member is quiescent the committed interval doubles per idle base
period (``BACKOFF_FACTOR``), capped at ``silence_period *
max_silence_factor``, and snaps back to ``silence_period`` on the first
data send or receive.  The interval is *forward-looking*: every outgoing
message advertises the interval computed from the idle time at send, so
the last message before a long gap already announces the long gap.
Receivers record the advertisement and stretch a backed-off member's
deadline to ``max(suspicion_timeout, advertised * SUSPICION_PERIODS)``; a
member at the base period is held to ``suspicion_timeout``.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.groupcomm.config import Liveliness
from repro.sim.core import Deadline

__all__ = ["FailureDetector"]

#: growth of the adaptive heartbeat interval per idle base period
BACKOFF_FACTOR = 2.0
#: advertised heartbeat intervals a member may stay silent before suspicion
SUSPICION_PERIODS = 3.0
#: beyond this many base periods of idleness the backoff is certainly capped;
#: guards the exponential against overflow
_MAX_BACKOFF_STEPS = 64.0


class FailureDetector:
    """Per-session liveness timers."""

    def __init__(self, session):
        self.session = session
        self.sim = session.sim
        #: when each member was last heard from: the service's router writes
        #: it for every framed message, of any kind, from a view member
        self.last_recv: Dict[str, float] = {}
        #: when this member last sent anything (the session's ``_multicast``
        #: writes it)
        self.last_sent = 0.0
        self.suspected: Set[str] = set()
        self._timer = Deadline(self.sim, self._tick)
        self._watch = Deadline(self.sim, self._watch_fired)
        self._stopped = False
        config = session.config
        live = config.liveliness_config
        self.base_period = config.silence_period
        self.adaptive = bool(live.adaptive) and config.liveliness == Liveliness.LIVELY
        self.max_period = (
            self.base_period * live.max_silence_factor if self.adaptive else self.base_period
        )
        #: the interval this member has committed to (and advertised);
        #: peers hold us to it, so we must never be silent longer
        self.committed_period = self.base_period
        #: heartbeat interval each view member advertised on its last message
        #: (the session's ``receive`` writes them), the base period until then
        self.peer_periods: Dict[str, float] = {}
        #: last data send or receive — the backoff clock (a receipt is
        #: written by the session's ``receive``, which calls
        #: ``note_activity`` only to snap the period back)
        self.last_activity = self.sim.now
        #: accounting mark for the suppression counter
        self._quiet_mark = self.sim.now
        self.period = min(config.silence_period, config.suspicion_timeout / 3.0)
        #: an advertised period above this stretches a deadline past the timeout
        self.stretch_floor = max(
            self.base_period, config.suspicion_timeout / SUSPICION_PERIODS
        )
        metrics = self.sim.obs.metrics
        self._suppressed = metrics.counter("gc.null_suppressed")
        self._period_gauge = metrics.gauge("gc.adaptive_period")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        now = self.sim.now
        self.last_sent = now
        for member in self.session.view.members:
            self.last_recv.setdefault(member, now)
            self.peer_periods.setdefault(member, self.base_period)
        if self._timer.due is None and not self._stopped:
            self._timer.arm(self.period)
        self.arm_watch()

    def stop(self) -> None:
        self._stopped = True
        self._timer.due = None
        self._watch.due = None

    def on_view_change(self) -> None:
        now = self.sim.now
        self.suspected.clear()
        self.last_recv = {m: now for m in self.session.view.members}
        self.last_sent = now
        # adaptive state is view-local: stale advertisements from the old
        # view must not stretch deadlines for the new one, and the backoff
        # restarts from the view-install activity burst
        self.peer_periods.clear()
        self.committed_period = self.base_period
        self.last_activity = now
        self._quiet_mark = now

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def note_activity(self) -> None:
        """A data message was sent or received: snap back to the base rate."""
        self.last_activity = self.sim.now
        if self.committed_period != self.base_period:
            self.committed_period = self.base_period
            self._period_gauge.set(self.base_period)

    def advertise_period(self) -> float:
        """Commit to (and return) the heartbeat interval for the coming gap.

        Called on every outgoing protocol message.  Forward-looking: the
        interval grows with idle time *as of now*, so the message that
        precedes a quiet stretch already advertises the stretched period.
        """
        if not self.adaptive:
            return self.base_period
        idle = self.sim.now - self.last_activity
        if idle <= 0.0:
            period = self.base_period
        else:
            steps = min(idle / self.base_period, _MAX_BACKOFF_STEPS)
            period = min(self.max_period, self.base_period * (BACKOFF_FACTOR ** steps))
        period = max(self.base_period, period)
        if period != self.committed_period:
            self.committed_period = period
            self._period_gauge.set(period)
        return period

    def deadline_for(self, member: str) -> float:
        """How long ``member`` may stay silent: ``suspicion_timeout``, unless
        it advertised a backed-off period, which stretches the deadline to
        ``max(suspicion_timeout, advertised * SUSPICION_PERIODS)``."""
        advertised = self.peer_periods[member]
        if advertised > self.stretch_floor:
            return advertised * SUSPICION_PERIODS
        return self.session.config.suspicion_timeout

    # ------------------------------------------------------------------
    # the watch: suspicion at the earliest deadline
    # ------------------------------------------------------------------
    def _deadlines(self):
        """``(member, when its deadline passes)`` for each unsuspected peer."""
        me = self.session.member_id
        return [
            (m, self.last_recv[m] + self.deadline_for(m))
            for m in self.session.view.members
            if m != me and m not in self.suspected
        ]

    def arm_watch(self) -> None:
        """Arm the watch for the earliest deadline: at a start, after each
        fire, and when a peer's lower advertisement brings its deadline in."""
        if not self._stopped:
            dues = [due for _, due in self._deadlines()]
            if dues:
                self._watch.arm(min(dues) - self.sim.now)

    def _watch_fired(self) -> None:
        session = self.session
        if self._stopped or session.view is None or not session.service.node.alive:
            return  # crash-stop: a dead member's timers die with it
        now = self.sim.now
        if not self._armed():
            # quiesced event-driven group: no one is suspected (see _tick)
            for member in session.view.members:
                self.last_recv[member] = now
        else:
            # gather all suspicions first so a single flush covers them
            expired = [m for m, due in self._deadlines() if due <= now]
            self.suspected.update(expired)
            for member in expired:
                session.membership.on_local_suspicion(member)
        self.arm_watch()

    # ------------------------------------------------------------------
    # the heartbeat tick
    # ------------------------------------------------------------------
    def _armed(self) -> bool:
        if self.session.config.liveliness == Liveliness.LIVELY:
            return True
        return self.session.has_outstanding()

    def _tick(self) -> None:
        if self._stopped or self.session.view is None:
            return
        if not self.session.service.node.alive:
            return  # crash-stop: a dead member's timers die with it
        now = self.sim.now
        if not self._armed():
            # quiesced event-driven group: refresh baselines so that the
            # watch does not suspect everyone as soon as the group arms
            self.last_sent = now
            self._quiet_mark = now
            for member in self.session.view.members:
                self.last_recv[member] = now
        else:
            silent_for = now - self.last_sent
            if silent_for >= self.committed_period and not self.session.has_scheduled_null():
                self.session.send_null()
            elif self.adaptive and now - max(self.last_sent, self._quiet_mark) >= self.base_period:
                # a static-regime heartbeat slot elapsed without a NULL
                self._suppressed.inc()
                self._quiet_mark = now
        if not self._stopped:
            self._timer.arm(self.period)
