"""Peer-participation applications: conferencing / IRC-style chat (§5.2).

Members of a lively peer group multicast one-way messages ("the body of the
message consists of a CORBA string type of 100 characters in length") and
every participant sees the same totally ordered transcript — the property a
shared conference or IRC channel needs.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.groupcomm.config import GroupConfig, Liveliness, Ordering
from repro.groupcomm.session import GroupSession

__all__ = ["ChatMember", "make_peer_config"]


def make_peer_config(ordering: str = Ordering.SYMMETRIC, **overrides) -> GroupConfig:
    """A lively peer-group configuration (the paper's §5.2 setting)."""
    params = dict(
        ordering=ordering,
        liveliness=Liveliness.LIVELY,
        silence_period=50e-3,
        suspicion_timeout=500e-3,
    )
    params.update(overrides)
    return GroupConfig(**params)


class ChatMember:
    """One conference participant bound to a peer group session."""

    def __init__(self, session: GroupSession, nickname: Optional[str] = None):
        self.session = session
        self.nickname = nickname or session.member_id
        self.transcript: List[Tuple[str, str]] = []
        self.on_message: Optional[Callable[[str, str], None]] = None
        session.on_deliver = self._deliver

    def say(self, text: str) -> None:
        """Multicast a line to the conference (one-way send)."""
        self.session.send(f"{self.nickname}: {text}")

    def _deliver(self, sender: str, payload) -> None:
        entry = (sender, str(payload))
        self.transcript.append(entry)
        if self.on_message is not None:
            self.on_message(*entry)

    @property
    def lines(self) -> List[str]:
        return [text for _sender, text in self.transcript]
