"""Per-phase invocation latency decomposition.

End-to-end invocation latency over a NewTop group channel is a composite:
the request waits in CPU/send queues, waits for its ordering ticket, may
stall behind a membership flush, executes at the servants, and finally the
replies are collected/combined.  This module splits the end-to-end number
into those five phases *without touching a single message format*: layers
report timestamps into a bounded side-table keyed by ``(client, call_no)``
and the client binding folds them into ``inv.phase.*`` histograms when the
call completes.

The decomposition is an **exact tiling** by construction.  For the
*completing* member m★ (the one whose reply satisfied the invocation
mode) we measure:

- ``order``    — ordering wait at m★: raw arrival → ordered delivery,
- ``execute``  — servant execution window at m★,
- ``reply``    — end of execution at m★ → reply resolved at the client,
- ``flush``    — time the call's messages sat queued behind membership
  flush/join rounds (accumulated across hops),
- ``queue``    — the residual: everything else (CPU queues, send costs,
  network transit), computed as ``e2e − order − execute − reply − flush``.

Because ``queue`` is the residual, the phase means always sum to the
end-to-end mean — the reconciliation the scenario report asserts on.
"""

from __future__ import annotations

from collections import OrderedDict
from types import SimpleNamespace
from typing import Any, Dict, Optional, Tuple

__all__ = ["PhaseAccountant", "PHASE_NAMES", "MAX_CALLS"]

PHASE_NAMES = ("queue", "order", "flush", "execute", "reply")

#: Upper bound on concurrently tracked calls (a leak backstop for calls
#: that never finish — timed-out invocations are popped by the client).
MAX_CALLS = 16_384

CallId = Tuple[str, int]


class _CallEntry:
    __slots__ = ("t0", "arrival", "cleared", "exec_submit", "exec_end", "flush")

    def __init__(self, t0: float):
        self.t0 = t0
        self.arrival: Dict[str, float] = {}
        self.cleared: Dict[str, float] = {}
        self.exec_submit: Dict[str, float] = {}
        self.exec_end: Dict[str, float] = {}
        self.flush = 0.0


class PhaseAccountant:
    """Bounded side-table of in-flight call timestamps.

    Every hook is a couple of dict operations on the hot path; calls the
    table never saw (capacity eviction, g2g traffic) simply yield no
    breakdown.  ``flush_pending`` is a cheap guard the send path checks
    before attempting a flush-hold release.
    """

    __slots__ = ("clock", "enabled", "flush_pending", "_calls", "_flush_start")

    def __init__(self, enabled: bool = True):
        #: anything with a ``now`` attribute: the simulator, once bound
        self.clock: Any = SimpleNamespace(now=0.0)
        self.enabled = enabled
        #: True while any call has an open flush hold (cheap send-path guard)
        self.flush_pending = False
        self._calls: "OrderedDict[CallId, _CallEntry]" = OrderedDict()
        self._flush_start: Dict[CallId, float] = {}

    # ------------------------------------------------------------------
    # lifecycle hooks (called by core/groupcomm layers)
    # ------------------------------------------------------------------
    def begin(self, call_id: CallId) -> None:
        """Client binding: the invocation clock starts now."""
        if not self.enabled:
            return
        self._calls[call_id] = _CallEntry(self.clock.now)
        while len(self._calls) > MAX_CALLS:
            evicted, _ = self._calls.popitem(last=False)
            self._flush_start.pop(evicted, None)

    def on_arrival(self, call_id: CallId, member: str) -> None:
        """Session layer: the request reached ``member``'s session (raw,
        before ordering).  First arrival per member wins (retries keep the
        original wait visible)."""
        entry = self._calls.get(call_id)
        if entry is not None and member not in entry.arrival:
            entry.arrival[member] = self.clock.now

    def on_cleared(self, call_id: CallId, member: str) -> None:
        """Session layer: ordering released the request to the app at
        ``member`` — the ordering wait for this member ends now."""
        entry = self._calls.get(call_id)
        if entry is not None and member not in entry.cleared:
            entry.cleared[member] = self.clock.now

    def on_exec_submit(self, call_id: CallId, member: str) -> None:
        """Server: the servant execution window at ``member`` opens now."""
        entry = self._calls.get(call_id)
        if entry is not None and member not in entry.exec_submit:
            entry.exec_submit[member] = self.clock.now

    def on_exec_end(self, call_id: CallId, member: str) -> None:
        """Server: the servant execution window at ``member`` closes now."""
        entry = self._calls.get(call_id)
        if entry is not None and member not in entry.exec_end:
            entry.exec_end[member] = self.clock.now

    def on_flush_hold(self, call_id: CallId) -> None:
        """A message of this call was queued behind a joining/flushing
        group state; the flush wait starts now."""
        entry = self._calls.get(call_id)
        if entry is not None and call_id not in self._flush_start:
            self._flush_start[call_id] = self.clock.now
            self.flush_pending = True

    def on_flush_release(self, call_id: CallId) -> None:
        """The held message finally went out; accumulate the flush wait."""
        start = self._flush_start.pop(call_id, None)
        if start is not None:
            entry = self._calls.get(call_id)
            if entry is not None:
                entry.flush += self.clock.now - start
            if not self._flush_start:
                self.flush_pending = False

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def finish(
        self, call_id: CallId, completing_member: Optional[str]
    ) -> Optional[Dict[str, float]]:
        """Fold the call's timestamps into the five-phase tiling and drop
        the entry.  Returns None when the call was never tracked."""
        entry = self._calls.pop(call_id, None)
        # close any dangling flush hold (e.g. the call timed out mid-flush)
        start = self._flush_start.pop(call_id, None)
        if entry is None:
            if not self._flush_start:
                self.flush_pending = False
            return None
        t_end = self.clock.now
        if start is not None:
            entry.flush += t_end - start
            if not self._flush_start:
                self.flush_pending = False
        e2e = max(t_end - entry.t0, 0.0)
        m = completing_member
        order = execute = reply = 0.0
        if m is not None:
            arr = entry.arrival.get(m)
            clr = entry.cleared.get(m)
            if arr is not None and clr is not None:
                order = max(clr - arr, 0.0)
            sub = entry.exec_submit.get(m)
            end = entry.exec_end.get(m)
            if sub is not None and end is not None:
                execute = max(end - sub, 0.0)
                reply = max(t_end - end, 0.0)
        flush = min(entry.flush, e2e)
        # the residual absorbs CPU queues, send costs and network transit;
        # clamp so the tiling stays a tiling even on degenerate timings
        queue = e2e - order - execute - reply - flush
        if queue < 0.0:
            # over-attribution (e.g. flush overlapped execution): shrink the
            # measured phases proportionally so the sum still equals e2e
            measured = order + execute + reply + flush
            scale = e2e / measured if measured > 0 else 0.0
            order *= scale
            execute *= scale
            reply *= scale
            flush *= scale
            queue = 0.0
        return {
            "queue": queue,
            "order": order,
            "flush": flush,
            "execute": execute,
            "reply": reply,
        }

    def discard(self, call_id: CallId) -> None:
        """Forget a call without recording (failed/timed-out invocations)."""
        self._calls.pop(call_id, None)
        self._flush_start.pop(call_id, None)
        if not self._flush_start:
            self.flush_pending = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PhaseAccountant in_flight={len(self._calls)}>"
