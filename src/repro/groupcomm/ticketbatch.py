"""Sequencer-side ticket batching (asymmetric ordering).

One :class:`TicketBatcher` per NSO coalesces the sequencer's ticket
announcements: instead of one ``TicketMsg`` multicast per remote data
message, assignments accumulate until either ``ticket_batch_max`` of them
are pending or ``ticket_batch_delay`` virtual seconds have passed since the
first pending one, then go out together.

The batcher is **service-level**, not per-session, because the global
ticket counter is: members of several groups sharing a sequencer rely on
that sequencer's tickets reaching them in increasing global order (the
cross-group merge delivers tickets in arrival order, trusting channel
FIFO).  A per-group batcher could delay group A's ticket 7 past group B's
ticket 8 and reorder them on the wire; flushing *all* pending assignments
in assignment order whenever any batch closes preserves the global
sequence.  For the same reason the sequencer's own self-ticketed data
messages force a flush first (see ``AsymmetricOrder.stamp``).

Pending (announced-but-unsent) tickets are safe across view changes: the
assignment is already in the ordering strategy's ``known_tickets``, so the
sequencer's FlushOk reports it and the coordinator's ViewInstall union
redistributes it.  If the sequencer crashes with a pending batch, nobody
ever saw those tickets and the new view's deterministic finalize order
applies — exactly as with a lost single TicketMsg.

With ``ticket_batch_max`` at its default of 1 every announcement flushes
immediately as a plain ``TicketMsg``: wire behaviour is byte-identical to
the unbatched protocol.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["TicketBatcher"]


class _Pending:
    __slots__ = ("ticket", "session", "key", "view_id")

    def __init__(self, ticket: int, session, key: Tuple[str, int]):
        self.ticket = ticket
        self.session = session
        self.key = key
        self.view_id = session.view.view_id


class TicketBatcher:
    """Coalesces one sequencer's ticket announcements across its groups."""

    def __init__(self, service):
        self.service = service
        self.sim = service.sim
        self._pending: List[_Pending] = []
        self._timer = None
        self._batched_counter = service.sim.obs.metrics.counter("gc.tickets_batched")

    # ------------------------------------------------------------------
    # sequencer side
    # ------------------------------------------------------------------
    def announce(self, session, ticket: int, key: Tuple[str, int]) -> None:
        """Queue one ticket assignment for multicast (or send it now)."""
        self._pending.append(_Pending(ticket, session, key))
        config = session.config.ordering_config
        if config.ticket_batch_max <= 1 or len(self._pending) >= config.ticket_batch_max:
            self.flush()
            return
        deadline = self.sim.now + config.ticket_batch_delay
        if self._timer is not None and deadline < self._timer.time:
            self._timer.cancel()
            self._timer = None
        if self._timer is None:
            self._timer = self.sim.schedule(config.ticket_batch_delay, self._timer_fired)

    def flush(self) -> None:
        """Multicast every pending assignment, in global ticket order.

        Each consecutive run of assignments for the same session goes out
        as one multicast (``GroupSession.send_tickets`` picks the wire
        format by run length).  Entries whose session's view moved on are
        dropped — their tickets travelled with the flush protocol instead.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        live = [
            entry
            for entry in pending
            if entry.session.state != "closed"
            and entry.session.view is not None
            and entry.session.view.view_id == entry.view_id
        ]
        index = 0
        while index < len(live):
            run = [live[index]]
            while (
                index + len(run) < len(live)
                and live[index + len(run)].session is run[0].session
            ):
                run.append(live[index + len(run)])
            run[0].session.send_tickets([(e.ticket, *e.key) for e in run])
            if len(run) > 1:
                self._batched_counter.inc(len(run))
            index += len(run)

    def _timer_fired(self) -> None:
        self._timer = None
        self.flush()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def purge(self, session) -> None:
        """Drop pending assignments for a session leaving its view (the
        flush-protocol union carries them instead)."""
        self._pending = [e for e in self._pending if e.session is not session]
        if not self._pending and self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def pending_count(self) -> int:
        return len(self._pending)
