"""Example application servants and peer-group applications.

- :class:`RandomNumberServant` — the paper's §5.1 benchmark service.
- :class:`KVStoreServant` — replicated data management (§1's motivation).
- :class:`ChatMember` — conferencing / IRC-style peer participation (§5.2).
- :class:`WhiteboardMember` — a convergent shared whiteboard (§5.2).
"""

from repro.apps.chat import ChatMember, make_peer_config
from repro.apps.kvstore import KVStoreServant
from repro.apps.randserver import RandomNumberServant
from repro.apps.sharded_kvstore import ShardedKVClient, ShardKVServant
from repro.apps.transactions import (
    Transaction,
    TransactionClient,
    TransactionalStoreServant,
    TxAborted,
)
from repro.apps.whiteboard import WhiteboardMember

__all__ = [
    "RandomNumberServant",
    "KVStoreServant",
    "ShardKVServant",
    "ShardedKVClient",
    "ChatMember",
    "WhiteboardMember",
    "make_peer_config",
    "TransactionalStoreServant",
    "TransactionClient",
    "Transaction",
    "TxAborted",
]
