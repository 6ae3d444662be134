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

Pending (announced-but-unsent) tickets are safe across view changes: each
is in ``known_tickets`` above the flush's stability floor (an own send since
would have flushed it), so the sequencer's FlushOk reports it and the
ViewInstall union carries it.  If the sequencer crashes with a batch, nobody
ever saw those tickets and the new view's deterministic finalize order
applies — exactly as with a lost single TicketMsg.

With ``ticket_batch_max`` at its default of 1 an announcement with nothing
pending goes straight to ``GroupSession.send_tickets`` as a plain
``TicketMsg``, with no pending state and no flush: wire behaviour is the
unbatched protocol's.  One that finds assignments pending (a batching
group's, on the same sequencer) joins them and flushes them all, so the
global ticket order holds across groups that batch and groups that do not.
The batch window is a :class:`~repro.sim.core.Deadline`: the first pending
assignment arms it, and a flush disarms it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.core import Deadline

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
        self._timer = Deadline(self.sim, self.flush)
        self._batched_counter = service.sim.obs.metrics.counter("gc.tickets_batched")

    # ------------------------------------------------------------------
    # sequencer side
    # ------------------------------------------------------------------
    def announce(self, session, ticket: int, key: Tuple[str, int]) -> None:
        """Send one ticket assignment now, or queue it for multicast."""
        config = session.config.ordering_config
        pending = self._pending
        if not pending and config.ticket_batch_max <= 1:
            session.send_tickets([(ticket, *key)])
            return
        pending.append(_Pending(ticket, session, key))
        if len(pending) >= config.ticket_batch_max:
            self.flush()
            return
        delay = config.ticket_batch_delay
        due = self._timer.due
        if due is None or self.sim.now + delay < due:
            self._timer.arm(delay)

    def flush(self) -> None:
        """Multicast every pending assignment, in global ticket order.

        Each consecutive run of assignments for the same session goes out
        as one multicast (``GroupSession.send_tickets`` picks the wire
        format by run length).  Entries whose session's view moved on are
        dropped — their tickets travelled with the flush protocol instead.
        """
        if not self._pending:
            return
        self._timer.due = None
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

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def purge(self, session) -> None:
        """Drop pending assignments for a session leaving its view (the
        flush-protocol union carries them instead)."""
        self._pending = [e for e in self._pending if e.session is not session]
        if not self._pending:
            self._timer.due = None

    def pending_count(self) -> int:
        return len(self._pending)
