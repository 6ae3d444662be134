"""Object references: IOR and IOGR.

An :class:`IOR` names one servant on one node.  An :class:`IOGR`
(Interoperable Object *Group* Reference, per the OMG fault-tolerance
specification discussed in the paper §2.2) embeds the IORs of all group
members with a designated primary; the open binding rebinds to another
member's profile when the one it uses becomes unreachable.
"""

from __future__ import annotations

from typing import List

from repro.orb.marshal import corba_struct

__all__ = ["IOR", "IOGR"]


@corba_struct
class IOR:
    """A reference to a single object: (node, adapter, object id).

    ``key``, the object key a request names, is derived here; never marshalled."""

    __slots__ = ("node", "adapter", "object_id", "key")
    _fields = ("node", "adapter", "object_id")

    def __init__(self, node: str, adapter: str, object_id: str):
        self.node = node
        self.adapter = adapter
        self.object_id = object_id
        self.key = f"{adapter}/{object_id}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IOR)
            and self.node == other.node
            and self.adapter == other.adapter
            and self.object_id == other.object_id
        )

    def __hash__(self) -> int:
        return hash((self.node, self.adapter, self.object_id))

    def __repr__(self) -> str:
        return f"IOR({self.node}:{self.adapter}/{self.object_id})"


@corba_struct
class IOGR:
    """A group reference: member IORs plus the index of the primary profile."""

    __slots__ = ("profiles", "primary")
    _fields = ("profiles", "primary")

    def __init__(self, profiles: List[IOR], primary: int = 0):
        if not profiles:
            raise ValueError("IOGR requires at least one profile")
        if not 0 <= primary < len(profiles):
            raise ValueError("primary index out of range")
        self.profiles = list(profiles)
        self.primary = primary

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IOGR)
            and self.profiles == other.profiles
            and self.primary == other.primary
        )

    def __repr__(self) -> str:
        return f"IOGR({self.profiles!r}, primary={self.primary})"
