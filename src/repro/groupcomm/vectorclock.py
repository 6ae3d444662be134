"""Vector clocks for causal-order delivery."""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["VectorClock"]


class VectorClock:
    """A mapping from member id to event count.

    Missing entries are zero, so a clock stamped in an earlier view reads
    sensibly against the current one.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[Dict[str, int]] = None):
        self.counts = dict(counts) if counts else {}

    def get(self, member: str) -> int:
        return self.counts.get(member, 0)

    def increment(self, member: str) -> "VectorClock":
        self.counts[member] = self.counts.get(member, 0) + 1
        return self

    def causally_ready(self, sender: str, local: "VectorClock") -> bool:
        """Delivery condition for a message stamped with this clock.

        The message is the ``self.get(sender)``-th from ``sender``; it may be
        delivered when the receiver has seen all of the sender's prior
        messages and everything the sender had seen from third parties.
        """
        for member, count in self.counts.items():
            if member == sender:
                if local.get(member) != count - 1:
                    return False
            elif local.get(member) < count:
                return False
        return True

    def __repr__(self) -> str:
        inner = ", ".join(f"{m}:{c}" for m, c in sorted(self.counts.items()))
        return f"VC({inner})"
