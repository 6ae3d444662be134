"""Shard layout: partitioning one parent membership into N shard views.

The layout is a pure function of the sorted member list (Derecho's
``make_subview`` shape), so every member recomputes the identical
assignment on every parent view change without any layout-distribution
protocol.  If the membership cannot satisfy it (some shard would end up
with fewer than ``min_members_per_shard`` members) :func:`round_robin`
raises :class:`~repro.errors.ProvisioningError` — the shard layer then
keeps the previous assignment (degraded) and retries on the next view
change, mirroring Derecho's ``subgroup_provisioning_exception``.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence

from repro.errors import ProvisioningError

__all__ = [
    "ProvisioningError",
    "round_robin",
    "key_to_shard",
    "shard_service_name",
]


def round_robin(
    members: Sequence[str], num_shards: int, min_members_per_shard: int = 1
) -> List[List[str]]:
    """The layout: deal the sorted members cyclically over shards.

    Balanced within one member (shard sizes differ by at most one), but a
    membership change can reshuffle many assignments — the shard layer's
    retiring-handover keeps state continuous through that.
    """
    assignment: List[List[str]] = [[] for _ in range(num_shards)]
    for index, member in enumerate(sorted(members)):
        assignment[index % num_shards].append(member)
    for shard_no, assigned in enumerate(assignment):
        if len(assigned) < min_members_per_shard:
            raise ProvisioningError(
                f"round_robin: shard {shard_no} has {len(assigned)} member(s), "
                f"needs {min_members_per_shard}"
            )
    return assignment


def key_to_shard(key, num_shards: int) -> int:
    """Deterministic key→shard routing (stable across processes and runs,
    unlike salted ``hash()``)."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return zlib.crc32(str(key).encode()) % num_shards


def shard_service_name(service_name: str, shard_no: int) -> str:
    """The registry/service name of one shard's sub-service (``svc#3``).

    The shard group's gc name is then ``svc:svc#3``, so flight-recorder
    events and protocol records are shard-attributable by group name.
    """
    return f"{service_name}#{shard_no}"
