"""Cross-group delivery mergers.

One NewTop service object may host many group sessions; the paper requires
total order to remain mutually consistent for multi-group members (§2.1) and
causality to hold between related requests issued through different
client/server groups (§4.4).  Two mergers provide this:

- :class:`SharedClockMerger` — for symmetric sessions: messages cleared by
  per-group ordering are released to the application in global
  (timestamp, sender) order.  A session gates other sessions' deliveries
  only while it actually has pending messages (an idle event-driven group
  cannot stall unrelated groups; see DESIGN.md §5 for the approximation).
  While one session is registered and nothing is queued (``lone``), no
  other session can gate it, and it delivers without the heap.

- :class:`TicketMerger` — for asymmetric sessions: per sequencer, ticketed
  messages are released in ticket-arrival order, which the FIFO channel from
  the sequencer guarantees to be increasing ticket order.  Members that
  share several groups under one sequencer therefore deliver the union in
  one consistent global order (what closed-group active replication needs).
  The strategies append to a sequencer's queue themselves; after every
  release each queue's head waits for its data, so an event in one session
  releases only its own sequencer's queue — except after a ``purge``,
  which may uncover a deliverable head anywhere, and so makes the next
  event sweep every queue.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Deque, Dict, List, Set, Tuple

from repro.groupcomm.messages import DataMsg
from repro.obs.metrics import OnFirstUse

__all__ = ["SharedClockMerger", "TicketMerger"]


class SharedClockMerger:
    """Orders cleared symmetric messages across sessions of one NSO."""

    def __init__(self):
        self._sessions: Set[Any] = set()
        self.heap: List[Tuple[Tuple[int, str], int, Any, DataMsg]] = []
        self._tie = itertools.count()
        #: the one registered session, if exactly one is (else None)
        self.lone: Any = None

    def register(self, session) -> None:
        self._sessions.add(session)
        self._keep_lone()

    def unregister(self, session) -> None:
        self._sessions.discard(session)
        self._keep_lone()
        if any(entry[2] is session for entry in self.heap):
            self.heap = [e for e in self.heap if e[2] is not session]
            heapq.heapify(self.heap)

    def _keep_lone(self) -> None:
        sessions = self._sessions
        self.lone = next(iter(sessions)) if len(sessions) == 1 else None

    def push(self, session, msg: DataMsg, key: Tuple[int, str]) -> None:
        heapq.heappush(self.heap, (key, next(self._tie), session, msg))

    def drain(self) -> None:
        """Release every head message not gated by another session."""
        while self.heap:
            key, _tie, session, msg = self.heap[0]
            if self._gated(session, key):
                return
            heapq.heappop(self.heap)
            session._deliver_app(msg)

    def _gated(self, owner, key: Tuple[int, str]) -> bool:
        for session in self._sessions:
            if session is owner:
                continue
            ordering = session.ordering
            # only sessions with pending undelivered messages can still
            # produce a smaller-keyed delivery
            if not ordering.backlog:
                continue
            if ordering.frontier_key() <= key:
                return True
        return False

    def queued_count(self) -> int:
        return len(self.heap)


class TicketMerger:
    """Orders ticketed (asymmetric) messages across sessions per sequencer."""

    def __init__(self):
        #: sequencer member id -> FIFO of (ticket, session, (sender, gseq)),
        #: which ``AsymmetricOrder`` appends to
        self.queues: Dict[str, Deque[Tuple[int, Any, Tuple[str, int]]]] = OnFirstUse(
            lambda sequencer: deque()
        )
        #: False after a purge: the next event sweeps every queue
        self.swept = True

    def release(self, queue: Deque) -> None:
        """Deliver ``queue``'s head while its data message has arrived — every
        queue's, on the first event after a purge.  An event that can unblock
        no queue calls it only then, with ``()``."""
        if self.swept:
            queues = (queue,)
        else:
            self.swept = True
            queues = self.queues.values()
        for queue in queues:
            while queue:
                ticket, session, key = queue[0]
                ordering = session.ordering
                msg = ordering.backlog.pop(key, None)
                if msg is None:
                    break
                queue.popleft()
                ordering.last_delivered_ticket = ticket
                session._deliver_app(msg)

    def purge(self, session) -> None:
        """Drop a session's entries (on view change or close)."""
        queues = self.queues
        for sequencer, queue in queues.items():
            queues[sequencer] = deque(entry for entry in queue if entry[1] is not session)
        self.swept = False

    def queued_count(self) -> int:
        return sum(len(q) for q in self.queues.values())
