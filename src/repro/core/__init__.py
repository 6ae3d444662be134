"""The paper's contribution: the flexible object group invocation layer.

Entry point: :class:`NewTopService` (one per node) — host replicated
services (``serve``), bind to them as a client with closed or open groups
(``bind``), invoke group-to-group (``bind_group_to_group``), run peer
participation groups (``create_peer_group``), or configure a cell of the
invocation-scheme × reply-scheme matrix (a ``SchemeConfig`` on ``bind``:
the binding fixes its call plan there, and a combined scheme returns the
node's ``CombinedBinding`` share of the cohort).
"""

from repro.core.client import GroupBinding, InvocationResult
from repro.core.combined import CombinedBinding
from repro.core.group_to_group import GroupToGroupBinding
from repro.core.messages import (
    CombinedReply,
    Contribution,
    ForwardedReply,
    InvokeMsg,
    ReplyMsg,
    ReplySet,
    ScatterArgs,
    StateUpdate,
)
from repro.core.modes import (
    BindingStyle,
    InvocationScheme,
    Mode,
    ReplicationPolicy,
    ReplyScheme,
    replies_needed,
)
from repro.core.registry import ServiceRegistry, client_sink_id, server_servant_id
from repro.core.scheme import REDUCERS, Reducer, SchemeConfig, resolve_reducer
from repro.core.server import ObjectGroupServer
from repro.core.service import NewTopService

__all__ = [
    "NewTopService",
    "ObjectGroupServer",
    "GroupBinding",
    "CombinedBinding",
    "GroupToGroupBinding",
    "InvocationResult",
    "Mode",
    "BindingStyle",
    "ReplicationPolicy",
    "InvocationScheme",
    "ReplyScheme",
    "SchemeConfig",
    "Reducer",
    "REDUCERS",
    "resolve_reducer",
    "replies_needed",
    "ServiceRegistry",
    "InvokeMsg",
    "ReplyMsg",
    "ReplySet",
    "StateUpdate",
    "ScatterArgs",
    "Contribution",
    "CombinedReply",
    "ForwardedReply",
    "client_sink_id",
    "server_servant_id",
]
