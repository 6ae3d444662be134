"""A shared whiteboard: peer participation with convergent state.

Another of the paper's GroupWare motivations (§5.2).  Every participant
applies the same totally ordered stream of drawing operations, so all
boards render identically — the whiteboard is effectively an actively
replicated document where every member is both client and server.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.groupcomm.session import GroupSession

__all__ = ["WhiteboardMember"]


class WhiteboardMember:
    """One participant's replica of the shared board."""

    def __init__(self, session: GroupSession):
        self.session = session
        self.member_id = session.member_id
        #: stroke id -> (owner, colour, list of points)
        self.strokes: Dict[str, Tuple[str, str, List[Tuple[float, float]]]] = {}
        self._next_stroke = 0
        session.on_deliver = self._deliver

    # ------------------------------------------------------------------
    # drawing operations (multicast, applied on delivery everywhere)
    # ------------------------------------------------------------------
    def draw(self, points: List[Tuple[float, float]], colour: str = "black") -> str:
        """Add a stroke; returns its globally unique id."""
        self._next_stroke += 1
        stroke_id = f"{self.member_id}/{self._next_stroke}"
        self.session.send(
            {"op": "draw", "id": stroke_id, "colour": colour,
             "points": [list(p) for p in points]}
        )
        return stroke_id

    def erase(self, stroke_id: str) -> None:
        self.session.send({"op": "erase", "id": stroke_id})

    # ------------------------------------------------------------------
    # replica application
    # ------------------------------------------------------------------
    def _deliver(self, sender: str, payload) -> None:
        if not isinstance(payload, dict) or "op" not in payload:
            return
        op = payload["op"]
        if op == "draw":
            points = [tuple(p) for p in payload["points"]]
            self.strokes[payload["id"]] = (sender, payload["colour"], points)
        elif op == "erase":
            self.strokes.pop(payload["id"], None)

    # ------------------------------------------------------------------
    # convergence checks
    # ------------------------------------------------------------------
    def digest(self) -> int:
        """Board content digest: equal digests mean identical boards."""
        canonical = tuple(
            (sid, owner, colour, tuple(points))
            for sid, (owner, colour, points) in sorted(self.strokes.items())
        )
        return hash(canonical)

    def __len__(self) -> int:
        return len(self.strokes)
