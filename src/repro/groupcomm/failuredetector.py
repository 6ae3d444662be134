"""Time-silence and failure suspicion (§3), quiescence-aware.

One detector per group session.  It periodically:

- sends a NULL ("I am alive") message if the member has been silent for its
  *committed* heartbeat interval; and
- suspects members not heard from within their deadline.

In a **lively** group both mechanisms run for the group's lifetime.  In an
**event-driven** group they are armed only while application messages are
outstanding in the group — when the group quiesces, the timers idle and the
baselines are refreshed so that re-arming cannot produce instant false
suspicion.

Adaptive suppression (``LivelinessConfig.adaptive``, lively groups only):
while the member is quiescent the committed interval doubles per idle base
period (``BACKOFF_FACTOR``), capped at ``silence_period *
max_silence_factor``, and snaps back to ``silence_period`` on the first
data send or receive.  The interval is *forward-looking*: every outgoing
message advertises the interval computed from the idle time at send, so
the last message before a long gap already announces the long gap.
Receivers record the advertisement and scale each member's suspicion
deadline to ``max(suspicion_timeout, advertised * SUSPICION_PERIODS)`` —
failure detection latency degrades gracefully with the advertised period
instead of breaking.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.groupcomm.config import Liveliness

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
        self._timer = None
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
        #: heartbeat intervals advertised by peers on their last message
        #: (the session's ``receive`` writes them)
        self.peer_periods: Dict[str, float] = {}
        #: last data send or receive — the backoff clock (a receipt is
        #: written by the session's ``receive``, which calls
        #: ``note_activity`` only to snap the period back)
        self.last_activity = self.sim.now
        #: accounting mark for the suppression counter
        self._quiet_mark = self.sim.now
        self.period = min(config.silence_period, config.suspicion_timeout / 3.0)
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
        if self._timer is None and not self._stopped:
            self._timer = self.sim.schedule(self.period, self._tick)

    def stop(self) -> None:
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

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
        """Suspicion deadline for ``member``, scaled to its advertisement.

        Active members advertise the base period, so the deadline floors at
        the static ``suspicion_timeout`` and detection latency is unchanged
        for busy groups; only members that announced a backed-off interval
        get proportionally more slack.
        """
        timeout = self.session.config.suspicion_timeout
        advertised = self.peer_periods.get(member, 0.0)
        return max(timeout, advertised * SUSPICION_PERIODS)

    # ------------------------------------------------------------------
    # the periodic tick
    # ------------------------------------------------------------------
    def _armed(self) -> bool:
        if self.session.config.liveliness == Liveliness.LIVELY:
            return True
        return self.session.has_outstanding()

    def _tick(self) -> None:
        self._timer = None
        if self._stopped or self.session.view is None:
            return
        if not self.session.service.node.alive:
            return  # crash-stop: a dead member's timers die with it
        now = self.sim.now
        if not self._armed():
            # quiesced event-driven group: refresh baselines so arming later
            # does not instantly suspect everyone
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
            # gather all suspicions first so a single flush covers them
            newly_suspected = []
            for member in self.session.view.members:
                if member == self.session.member_id or member in self.suspected:
                    continue
                heard = self.last_recv.get(member, now)
                if now - heard > self.deadline_for(member):
                    self.suspected.add(member)
                    newly_suspected.append(member)
            for member in newly_suspected:
                self.session.membership.on_local_suspicion(member)
        if not self._stopped:
            self._timer = self.sim.schedule(self.period, self._tick)
