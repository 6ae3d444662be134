"""Sender-side flow control for group sessions.

A member that multicasts faster than the group can acknowledge would grow
its unstable buffer (and every receiver's pending queues) without bound.
NewTop-era group systems bound this with a sender window; we do the same:
a session may have at most ``window`` of its own data messages unstable
(sent but not yet known received by every member).  Further sends queue
locally and drain as stability acknowledgements arrive.

The local pending queue itself is bounded too (``max_queue``): a saturated
group otherwise just moves the unbounded buffer from the wire to the
sender.  Overflowing sends are refused at ``try_acquire`` time — the
caller decides whether that means dropping the payload or shedding the
request that produced it (the overload layer turns it into a
``RetryAfter``).

The window also gives benchmarks their pipelining semantics: peer members
"multicasting as frequently as possible" are in fact window-limited, which
is what keeps the LAN flood experiments (§5.2) stable.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

__all__ = ["FlowController", "FlowQueueFull", "DEFAULT_WINDOW"]

#: Default maximum number of own unstable data messages per group.
DEFAULT_WINDOW = 64


class FlowQueueFull(Exception):
    """``try_acquire`` refused a payload: the pending queue is at max_queue."""


class FlowController:
    """Bounds a session's own outstanding (unstable) data messages.

    ``max_queue`` additionally bounds the local pending queue; ``None``
    (the default) keeps the historical unbounded behaviour.
    """

    def __init__(self, window: int = DEFAULT_WINDOW, max_queue: Optional[int] = None):
        if window < 1:
            raise ValueError("flow-control window must be at least 1")
        if max_queue is not None and max_queue < 0:
            raise ValueError("flow-control max_queue must be >= 0")
        self.window = window
        self.max_queue = max_queue
        #: own data messages sent and not yet stable
        self.in_flight = 0
        self._queue: Deque[Any] = deque()

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------
    def try_acquire(self, payload: Any) -> bool:
        """Claim a window slot for ``payload``.

        Returns True if the send may proceed now; otherwise the payload is
        queued and will be released to ``drain`` later.  Raises
        :class:`FlowQueueFull` (without queueing) when the pending queue is
        already at ``max_queue``.
        """
        if self.in_flight < self.window:
            self.in_flight += 1
            return True
        if self.max_queue is not None and len(self._queue) >= self.max_queue:
            raise FlowQueueFull(
                f"flow-control queue full ({len(self._queue)}/{self.max_queue})"
            )
        self._queue.append(payload)
        return False

    def requeue(self, payload: Any) -> bool:
        """Re-admit an already-accepted payload (view-change replay).

        Like :meth:`try_acquire` but never raises: work that was admitted
        before a view change must survive the replay even if the bounded
        queue is momentarily past ``max_queue``.
        """
        if self.in_flight < self.window:
            self.in_flight += 1
            return True
        self._queue.append(payload)
        return False

    def release(self, count: int = 1) -> None:
        """Report ``count`` of our messages as stable (acknowledged by all)."""
        self.in_flight = max(0, self.in_flight - count)

    def drain(self) -> Optional[Any]:
        """Pop one queued payload if a window slot is free, claiming it."""
        if self._queue and self.in_flight < self.window:
            self.in_flight += 1
            return self._queue.popleft()
        return None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        return len(self._queue)

    def reset(self) -> None:
        """View change: outstanding accounting restarts with the new view."""
        self.in_flight = 0
        # queued sends are re-queued by the session itself

    def pop_all_queued(self):
        """Hand back everything still queued (for view-change replay)."""
        items = list(self._queue)
        self._queue.clear()
        return items
