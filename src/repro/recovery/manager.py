"""The recovery manager: crashes become transient events.

The scenario fault layer knows how to flip a node's power switch; this
module knows what has to happen *above* the network for the group to heal:

- ``restart_member(target)`` — power the node back on and drive its
  :class:`~repro.core.server.ObjectGroupServer` through
  ``restart()`` (tear down the dead incarnation's sessions, rediscover the
  group through the registry, rejoin via the normal membership/state-
  transfer path).
- ``after_heal()`` — a partition heal needs no single restart: the manager
  starts (or re-arms) its convergence watch, and the watch rejoins
  whichever members the majority view left behind.

The watch polls :func:`~repro.recovery.convergence.convergence_status`
every ``POLL_PERIOD`` until the group has stayed converged for one
suspicion timeout (a member the group was about to expel is gone by then),
records the time from the last recovery fault to the first poll of that
stretch into the ``recovery.time`` histogram, and bumps
``recovery.converged``.  Divergent-but-stuck members (e.g. a short
partition where the minority installed a solo view the majority never
noticed) are force-rejoined after ``STUCK_POLLS`` quiet polls — the one
case the membership protocol alone cannot repair, because neither side
sees a reason to run a flush.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.recovery.convergence import convergence_status

__all__ = ["RecoveryManager"]


class RecoveryManager:
    """Watches one replicated service and rejoins its fallen members."""

    POLL_PERIOD = 0.25
    #: polls with nothing actionable before divergent views are force-rejoined
    STUCK_POLLS = 8
    #: hard cap on watch polls after the last fault (backstop, not a tuning knob)
    MAX_POLLS = 400

    def __init__(self, sim, net, services, service_name: str):
        self.sim = sim
        self.net = net
        self.services = services
        self.service_name = service_name
        metrics = sim.obs.metrics
        self._recovery_time = metrics.histogram("recovery.time")
        self._converged_counter = metrics.counter("recovery.converged")
        self._restarts_counter = metrics.counter("recovery.restarts")
        self._last_fault: Optional[float] = None
        self._watching = False
        self._polls = 0
        self._stuck_polls = 0
        self._converged_at: Optional[float] = None  # first poll of the converged stretch
        self._restarting: Set[str] = set()

    # ------------------------------------------------------------------
    # fault hooks (called by the fault schedule at fire time)
    # ------------------------------------------------------------------
    def restart_member(self, target: str) -> None:
        """Bring ``target`` back up and rejoin its member to the group."""
        self.net.recover(target)
        self._note_fault()
        server = self._server_of(target)
        if server is not None:
            self._restart(target, server)

    def after_heal(self) -> None:
        """A partition healed: watch for (and repair) leftover minorities."""
        self._note_fault()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _server_of(self, name: str):
        service = self.services.get(name)
        if service is None:
            return None
        return getattr(service, "servers", {}).get(self.service_name)

    def _restart(self, name: str, server) -> None:
        if name in self._restarting:
            return
        self._restarting.add(name)
        self._restarts_counter.inc()
        server.restart().add_done_callback(lambda _f: self._restarting.discard(name))

    def _is_rejoin_contact(self, name: str) -> bool:
        """Is some other member's in-flight rejoin joining *through* ``name``?

        Tearing the join contact down mid-join recreates the very partition
        being repaired: after a cascaded restart the contact may be the sole
        registry-advertised member, so restarting it (because its solo view
        is not the primary) leaves the rejoiner with nothing to join and the
        group never re-forms.  The contact stays protected only while a
        rejoin loop targeting it is actually in flight — including the
        backoff window between attempts — and a stale or excluded member is
        restartable the moment the rejoin settles."""
        for other in self.services:
            if other == name:
                continue
            server = self._server_of(other)
            if server is None or server.ready.done:
                continue  # no rejoin in flight at this member
            if server._rejoin_contact == name:
                return True
        return False

    def _note_fault(self) -> None:
        self._last_fault = self.sim.now
        self._polls = 0
        self._stuck_polls = 0
        self._converged_at = None
        if not self._watching:
            self._watching = True
            self.sim.schedule(self.POLL_PERIOD, self._watch)

    def _watch(self) -> None:
        if not self._watching:
            return
        status = convergence_status(self.services, self.service_name, self.net)
        if status["converged"]:
            now = self.sim.now
            if self._converged_at is None:
                self._converged_at = now
            if now - self._converged_at >= self._settle_time(status["live"]):
                self._watching = False
                self._recovery_time.record(self._converged_at - self._last_fault)
                self._converged_counter.inc()
                return
        else:
            self._converged_at = None
            acted = False
            for name in status["stragglers"]:
                server = self._server_of(name)
                if server is None or name in self._restarting:
                    continue
                if server.group is not None and server.group.state == "joining":
                    continue  # already on its way back in
                if self._is_rejoin_contact(name):
                    continue
                self._restart(name, server)
                acted = True
            if acted or self._restarting:
                self._stuck_polls = 0
            else:
                self._stuck_polls += 1
                if self._stuck_polls >= self.STUCK_POLLS:
                    self._force_rejoin_divergent(status)
                    self._stuck_polls = 0
        self._polls += 1
        if self._polls < self.MAX_POLLS:
            self.sim.schedule(self.POLL_PERIOD, self._watch)
        else:
            self._watching = False

    def _settle_time(self, live) -> float:
        """One suspicion timeout of the group: how long a converged group
        must stay so before the watch believes it."""
        sessions = [self._server_of(name).group for name in live]
        return max(
            (session.config.suspicion_timeout for session in sessions if session is not None),
            default=0.0,
        )

    def _force_rejoin_divergent(self, status) -> None:
        """Repair stuck view divergence the protocol itself will not heal.

        After a partition shorter than the suspicion timeout, the minority
        may have installed a solo view while the majority never removed it:
        both sides are stable and deaf to each other.  Rejoin the members
        whose installed view is strictly smaller than the primary — tearing
        their session down makes the majority finally suspect and remove
        them, after which the rejoin goes through.
        """
        primary = status["view"]
        if primary is None:
            return
        for name in status["live"]:
            view = status["views"].get(name)
            if view is None or list(view) == list(primary):
                continue
            if len(view) < len(primary):
                server = self._server_of(name)
                if (
                    server is not None
                    and name not in self._restarting
                    and not self._is_rejoin_contact(name)
                ):
                    self._restart(name, server)
