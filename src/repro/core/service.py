"""The NewTop service facade: one object per node.

This is the library's main entry point.  It bundles the node's ORB, the
group communication service, the service registry client, and the client
reply sink, and exposes the high-level operations applications use:

- ``serve(name, servant, ...)`` — host a member of a replicated service;
- ``bind(name, style=..., scheme=..., **group_config)`` — bind as a client
  (closed or open, in one cell of the invocation-scheme × reply-scheme
  matrix); every non-binding keyword is a ``GroupConfig`` field;
- ``bind_group_to_group(...)`` — invoke another group from a group;
- ``create_peer_group`` / ``join_peer_group`` — peer-participation groups
  (conferencing-style one-way multicasting, §5.2).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.core.client import GroupBinding
from repro.core.combined import CombinedBinding
from repro.core.group_to_group import GroupToGroupBinding
from repro.core.messages import ForwardedReply, ReplyMsg
from repro.core.modes import BindingStyle, ReplicationPolicy
from repro.core.scheme import SchemeConfig
from repro.core.registry import ServiceRegistry, client_sink_id
from repro.core.server import ObjectGroupServer
from repro.errors import GroupError
from repro.groupcomm.config import GroupConfig, Liveliness
from repro.groupcomm.service import GroupCommService
from repro.groupcomm.session import GroupSession
from repro.overload import AdmissionConfig
from repro.recovery.policy import RetryPolicy
from repro.orb.ior import IOR
from repro.orb.orb import ORB

__all__ = ["NewTopService"]


class _ClientSink:
    """Receives closed-group replies sent point-to-point by servers, and
    replies forwarded to this node by a third party's ``forward`` scheme."""

    OP_COSTS = {"deliver_reply": 20e-6, "deliver_forwarded": 20e-6}

    def __init__(self, service: "NewTopService"):
        self._service = service

    def deliver_reply(self, reply: ReplyMsg) -> None:
        self._service._on_direct_reply(reply)

    def deliver_forwarded(self, reply: ForwardedReply) -> None:
        self._service._on_forwarded(reply)


class NewTopService:
    """Per-node facade over the NewTop object group service."""

    def __init__(self, orb: ORB, name_server: Optional[IOR] = None):
        self.orb = orb
        self.node = orb.node
        self.sim = orb.sim
        self.name = orb.node.name
        self.gcs = GroupCommService(orb)
        self.registry = (
            ServiceRegistry(orb, name_server) if name_server is not None else None
        )
        self._call_numbers = itertools.count(1)
        self._binding_epochs = itertools.count(1)
        self._pending_routes: Dict[Tuple[str, int], GroupBinding] = {}
        self.servers: Dict[str, ObjectGroupServer] = {}
        #: replies forwarded here by other bindings' ``forward`` reply
        #: scheme, newest last (bounded)
        self.forwarded: List[ForwardedReply] = []
        self._forwarded_counter = self.sim.obs.metrics.counter("gmi.forwarded.received")
        orb.register(_ClientSink(self), object_id=client_sink_id(self.name))

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def serve(
        self,
        service_name: str,
        servant: Any,
        policy: str = ReplicationPolicy.ACTIVE,
        config: Optional[GroupConfig] = None,
        async_forwarding: bool = False,
        admission: Optional[AdmissionConfig] = None,
    ) -> ObjectGroupServer:
        """Host a member of ``service_name``.

        The member enters through the registry
        (:meth:`ObjectGroupServer.start`): the first one finds the service
        not bound, creates the server group and advertises it; later ones
        join through the members it names.  Await ``server.ready``.
        """
        return self._host(
            ObjectGroupServer,
            service_name,
            servant,
            policy=policy,
            config=config,
            async_forwarding=async_forwarding,
            admission=admission,
        )

    def serve_sharded(
        self,
        service_name: str,
        servant_factory: Any,
        num_shards: int,
        min_members_per_shard: int = 1,
        policy: str = ReplicationPolicy.ACTIVE,
        config: Optional[GroupConfig] = None,
        async_forwarding: bool = False,
        admission: Optional[AdmissionConfig] = None,
    ):
        """Host a member of the *sharded* service ``service_name``.

        The parent membership is partitioned into ``num_shards`` shard
        groups by :func:`repro.shard.layout.round_robin`; this node hosts a
        fresh ``servant_factory()`` servant for every shard the layout
        assigns it.  Await ``server.ready`` (parent membership), then check
        ``server.provisioned``.
        """
        from repro.shard.server import ShardedServer  # local: avoid cycle

        return self._host(
            ShardedServer,
            service_name,
            servant_factory,
            num_shards,
            min_members_per_shard=min_members_per_shard,
            policy=policy,
            config=config,
            async_forwarding=async_forwarding,
            admission=admission,
        )

    def _host(self, server_class, service_name: str, *args: Any, **options: Any):
        """Build this node's server for ``service_name`` and start it."""
        if service_name in self.servers:
            raise GroupError(f"{self.name} already serves {service_name!r}")
        server = self.servers[service_name] = server_class(
            self, service_name, *args, **options
        )
        server.start()
        return server

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def bind(
        self,
        service_name: str,
        style: str = BindingStyle.OPEN,
        restricted: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        scheme: Optional[SchemeConfig] = None,
        admission: Optional[AdmissionConfig] = None,
        **group_config: Any,
    ):
        """Bind to a replicated service.  Await ``binding.ready``.

        The five named options belong to the binding: closed or open
        ``style``, the ``restricted`` (designated-manager) optimisation, the
        per-call ``retry_policy``, a ``scheme`` (one cell of the
        invocation-scheme × reply-scheme matrix) and client-side
        ``admission``.  Every other keyword is a
        :class:`~repro.groupcomm.config.GroupConfig` field of the
        client/server group — ``ordering`` (asymmetric unless given),
        ``liveliness``, ``suspicion_timeout``, ... — validated at bind time.
        A combined scheme returns this node's
        :class:`~repro.core.combined.CombinedBinding` share of the cohort
        (only the rank-0 root binds to the service, with these options).
        """
        combined = scheme is not None and scheme.is_combined
        return (CombinedBinding if combined else GroupBinding)(
            self,
            service_name,
            style=style,
            restricted=restricted,
            retry_policy=retry_policy,
            scheme=scheme,
            admission=admission,
            **group_config,
        )

    def bind_sharded(
        self,
        service_name: str,
        num_shards: int,
        **binding_kwargs: Any,
    ):
        """Bind to a sharded service: one sub-binding per shard, key-routed
        invocation and scatter/gather on top.  Await ``binding.ready``.
        Extra keyword arguments are :meth:`bind`'s, for each per-shard
        :class:`~repro.core.client.GroupBinding`, except ``scheme``: the
        shard layer routes and gathers itself, so a scheme is a
        :class:`~repro.errors.ConfigurationError` here.
        """
        from repro.shard.binding import ShardedBinding  # local: avoid cycle

        return ShardedBinding(self, service_name, num_shards, **binding_kwargs)

    def bind_group_to_group(
        self,
        client_group: str,
        client_members: List[str],
        target_service: str,
        **bind_kwargs: Any,
    ) -> GroupToGroupBinding:
        """Bind a member of ``client_group`` for group-to-group invocation.
        Extra keyword arguments are :meth:`bind`'s (``retry_policy``, and
        the client monitor group's ``GroupConfig`` fields); every member of
        ``client_members`` must bind alike."""
        return GroupToGroupBinding(
            self, client_group, client_members, target_service, **bind_kwargs
        )

    # ------------------------------------------------------------------
    # peer participation
    # ------------------------------------------------------------------
    def create_peer_group(
        self, group: str, config: Optional[GroupConfig] = None
    ) -> GroupSession:
        """Create a peer group (lively by default, per §3)."""
        return self.gcs.create_group(
            group, config or GroupConfig(liveliness=Liveliness.LIVELY)
        )

    def join_peer_group(self, group: str, contact: str) -> GroupSession:
        return self.gcs.join_group(group, contact)

    # ------------------------------------------------------------------
    # plumbing shared by bindings
    # ------------------------------------------------------------------
    def next_call_no(self) -> int:
        return next(self._call_numbers)

    def next_binding_epoch(self) -> int:
        """Node-unique epoch for client/server group names (no collisions
        between successive bindings to the same service)."""
        return next(self._binding_epochs)

    def register_pending(self, call_id: Tuple[str, int], binding: GroupBinding) -> None:
        """Route closed-style direct replies for ``call_id`` — (caller on
        the wire, call number) — to ``binding``."""
        self._pending_routes[call_id] = binding

    def unregister_pending(self, call_id: Tuple[str, int]) -> None:
        self._pending_routes.pop(call_id, None)

    def _on_direct_reply(self, reply: ReplyMsg) -> None:
        binding = self._pending_routes.get((reply.client, reply.call_no))
        if binding is not None:
            binding.on_direct_reply(reply)

    # ------------------------------------------------------------------
    # forwarded replies (reply scheme ``forward``)
    # ------------------------------------------------------------------
    def _on_forwarded(self, reply: ForwardedReply) -> None:
        self._forwarded_counter.inc()
        self.forwarded.append(reply)
        if len(self.forwarded) > 256:
            self.forwarded.pop(0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NewTopService {self.name}>"
