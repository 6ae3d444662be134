"""Group views.

A view is the agreed membership of a group at a point in its history.
Member order is **creation order** (creator first, joiners appended); the
first member of a view doubles as the membership coordinator and — for
asymmetric groups — the sequencer, unless the config's ``sequencer_hint``
names another member.  The hint picks only the first sequencer: the install
that removes the hinted member drops it, so a restarted member rejoins as a
backup (no failback).  Rank 0 is also what the registry lists first, so a
rebinding client picks it as request manager, and the request manager /
primary / sequencer stay the same member (§4.2).
"""

from __future__ import annotations

from typing import List

from repro.orb.marshal import corba_struct

__all__ = ["GroupView"]


@corba_struct
class GroupView:
    """An installed membership view: (group name, view number, members).

    ``era`` is the group *incarnation* id, stamped once at
    :meth:`~repro.groupcomm.service.GroupCommService.create_group` and
    copied into every successor view.  A group that is re-created after a
    total failure restarts view numbering at 1; the era keeps those views
    from aliasing the dead incarnation's identically-numbered ones.
    """

    __slots__ = ("group", "view_id", "members", "era")
    _fields = ("group", "view_id", "members", "era")

    def __init__(self, group: str, view_id: int, members: List[str], era: str = ""):
        if not members:
            raise ValueError("a view must contain at least one member")
        if len(set(members)) != len(members):
            raise ValueError("duplicate members in view")
        self.group = group
        self.view_id = view_id
        self.members = list(members)
        self.era = era

    # ------------------------------------------------------------------
    # roles
    # ------------------------------------------------------------------
    @property
    def coordinator(self) -> str:
        """The member responsible for driving membership agreement."""
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupView)
            and self.group == other.group
            and self.view_id == other.view_id
            and self.members == other.members
            and self.era == other.era
        )

    def __repr__(self) -> str:
        return f"GroupView({self.group}#{self.view_id} {self.members})"
