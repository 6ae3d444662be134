"""Sharded subgroups: one parent membership partitioned into N shard
groups, each with its own ordering session, plus shard-aware routing.

See DESIGN.md ("Sharded subgroups") for the architecture and
:mod:`repro.shard.layout` for the layout function.
"""

from repro.shard.binding import ShardedBinding
from repro.shard.convergence import sharded_convergence_status
from repro.shard.layout import (
    ProvisioningError,
    key_to_shard,
    round_robin,
    shard_service_name,
)
from repro.shard.server import ShardedServer

__all__ = [
    "ShardedBinding",
    "ShardedServer",
    "sharded_convergence_status",
    "ProvisioningError",
    "round_robin",
    "key_to_shard",
    "shard_service_name",
]
