"""Protocol flight recorder: per-node bounded rings of protocol events.

Tracing answers "where did the time go?"; the flight recorder answers
"what did the protocol *do* just before things went wrong?".  Every node
keeps a small ring buffer (:class:`collections.deque`) of compact event
tuples — sends, ordered deliveries, ticket emissions, flush rounds, view
installs, suspicions, restarts — cheap enough to leave on everywhere,
including trace-off benchmark runs.

Events carry a global monotone sequence number assigned at record time.
The simulator is single-threaded, so record order *is* causal order:
merging the per-node rings by sequence number reconstructs the exact
interleaving the protocol engines observed.  The scenario runner and the
invariant harness dump the merged last-N excerpt into their reports when
an SLO verdict fails or an invariant trips, turning an opaque failed run
into a replayable post-mortem.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import OnFirstUse

__all__ = ["FlightRecorder", "FLIGHT_CAPACITY"]

#: Default per-node ring capacity.  512 events/node covers several view
#: changes plus the surrounding traffic without unbounded growth.
FLIGHT_CAPACITY = 512

#: event tuple layout: (seq, t, node, kind, group, detail)
FlightEvent = Tuple[int, float, str, str, str, str]


class FlightRecorder:
    """Always-on ring buffers of protocol events, one per node."""

    __slots__ = ("capacity", "clock", "enabled", "_rings", "_seq")

    def __init__(self, capacity: int = FLIGHT_CAPACITY, enabled: bool = True):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.capacity = capacity
        #: anything with a ``now`` attribute: the simulator, once bound
        self.clock: Any = SimpleNamespace(now=0.0)
        self.enabled = enabled
        self._rings: Dict[str, "deque[FlightEvent]"] = OnFirstUse(
            lambda node: deque(maxlen=capacity)
        )
        self._seq = 0

    # ------------------------------------------------------------------
    # recording (the hot path: one subscript + deque append)
    # ------------------------------------------------------------------
    def record(self, node: str, kind: str, group: str = "", detail: str = "") -> None:
        if not self.enabled:
            return
        self._seq += 1
        self._rings[node].append((self._seq, self.clock.now, node, kind, group, detail))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def events(self, node: Optional[str] = None) -> List[FlightEvent]:
        """All retained events, merged across nodes in causal (record)
        order — or a single node's ring when ``node`` is given."""
        if node is not None:
            return list(self._rings.get(node, ()))
        merged: List[FlightEvent] = []
        for ring in self._rings.values():
            merged.extend(ring)
        merged.sort()  # seq is the first element: global causal order
        return merged

    def excerpt(self, last: int = 80, node: Optional[str] = None) -> List[Dict[str, Any]]:
        """The merged last-``last`` events as JSON-friendly dicts (the
        shape embedded in scenario reports and invariant output)."""
        events = self.events(node)[-last:]
        return [
            {"seq": seq, "t": t, "node": n, "kind": kind, "group": group, "detail": detail}
            for seq, t, n, kind, group, detail in events
        ]

    def render(self, last: int = 80, node: Optional[str] = None) -> str:
        """Human-readable excerpt, one line per event, causally ordered."""
        events = self.events(node)[-last:]
        if not events:
            return "(flight recorder empty)"
        lines = [f"flight recorder: last {len(events)} protocol events"]
        for seq, t, n, kind, group, detail in events:
            tag = f"{group}:" if group else ""
            suffix = f" {detail}" if detail else ""
            lines.append(f"  #{seq:<6d} {t * 1e3:10.3f}ms  {n:<8s} {tag}{kind}{suffix}")
        return "\n".join(lines)

    @staticmethod
    def render_excerpt(excerpt: List[Dict[str, Any]]) -> str:
        """Render a previously captured :meth:`excerpt` (e.g. from a saved
        scenario report) back into the human-readable line format."""
        if not excerpt:
            return "(flight recorder empty)"
        lines = [f"flight recorder: last {len(excerpt)} protocol events"]
        for ev in excerpt:
            tag = f"{ev['group']}:" if ev.get("group") else ""
            suffix = f" {ev['detail']}" if ev.get("detail") else ""
            lines.append(
                f"  #{ev['seq']:<6d} {ev['t'] * 1e3:10.3f}ms  {ev['node']:<8s}"
                f" {tag}{ev['kind']}{suffix}"
            )
        return "\n".join(lines)

    def clear(self) -> None:
        self._rings.clear()

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlightRecorder nodes={len(self._rings)} events={len(self)}>"
