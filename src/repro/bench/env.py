"""Benchmark environments: the paper's deployment configurations (§5).

Three request-reply configurations:

- ``lan``   — clients and servers all on the same LAN (configuration i);
- ``mixed`` — servers on the Newcastle LAN, clients split between London
  and Pisa (configuration ii);
- ``wan``   — servers and clients geographically separated across
  Newcastle, London, and Pisa (configuration iii).

Peer experiments use ``lan`` or ``wan`` member placement.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.bench.workloads import PeerTracker
from repro.core import NewTopService
from repro.groupcomm import GroupConfig
from repro.net import Network, Topology
from repro.orb import NameServer, ORB
from repro.sim import Simulator

__all__ = ["DeploymentError", "Environment", "REQUEST_REPLY_CONFIGS", "SITES"]

SITES = ("newcastle", "london", "pisa")

REQUEST_REPLY_CONFIGS = ("lan", "mixed", "wan")


def _server_site(config: str, index: int) -> str:
    if config in ("lan", "mixed"):
        return "newcastle"
    return SITES[index % len(SITES)]


def _client_site(config: str, index: int) -> str:
    if config == "lan":
        return "newcastle"
    if config == "mixed":
        # clients "equally distributed between London and Pisa"
        return ("london", "pisa")[index % 2]
    # wan: spread, offset from the server placement so client i is not
    # colocated with server i
    return SITES[(index + 1) % len(SITES)]


class DeploymentError(RuntimeError):
    """A deployment could not be brought up (not a measurement or SLO failure)."""


class Environment:
    """A simulated deployment: topology, nodes, NewTop services, registry."""

    def __init__(self, config: str = "lan", seed: int = 42, obs=None):
        if config not in REQUEST_REPLY_CONFIGS:
            raise ValueError(f"unknown environment config {config!r}")
        self.config = config
        self.sim = Simulator(seed=seed, obs=obs)
        self.obs = self.sim.obs
        if config == "lan":
            self.topology = Topology.single_lan("newcastle")
        else:
            self.topology = Topology.paper_wan()
        self.net = Network(self.sim, self.topology)
        self.services: Dict[str, NewTopService] = {}

        registry_node = self.net.new_node("registry", "newcastle")
        registry_orb = ORB(registry_node)
        self.name_server_ref = registry_orb.register(
            NameServer(), object_id="NameService"
        )

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, site: str) -> NewTopService:
        node = self.net.new_node(name, site)
        service = NewTopService(ORB(node), name_server=self.name_server_ref)
        self.services[name] = service
        return service

    def add_servers(self, count: int) -> List[NewTopService]:
        return [
            self.add_node(f"s{i}", _server_site(self.config, i)) for i in range(count)
        ]

    def add_clients(self, count: int) -> List[NewTopService]:
        return [
            self.add_node(f"c{i}", _client_site(self.config, i)) for i in range(count)
        ]

    def add_peers(self, count: int) -> List[NewTopService]:
        """Peer-group members: LAN config colocates, wan spreads over sites."""
        return [
            self.add_node(f"p{i}", _server_site(self.config, i)) for i in range(count)
        ]

    # ------------------------------------------------------------------
    # execution helpers
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def settle(self, duration: float = 1.0) -> None:
        """Let group formation and registry traffic quiesce."""
        self.run(duration)

    # ------------------------------------------------------------------
    # bring-up: the one place a deployment's join schedule is written
    # ------------------------------------------------------------------
    def serve_replicas(
        self, service_name: str, servant_factory, count: int,
        shards: Optional[int] = None, settle: float = 0.5, **kwargs,
    ):
        """Start ``count`` replicas 0.25 s apart, settle, check; returns the
        server objects.  With ``shards`` the service is sharded
        (``serve_sharded``) and must come up provisioned as well as ready."""
        servers = []
        for service in self.add_servers(count):
            if shards is None:
                server = service.serve(service_name, servant_factory(), **kwargs)
            else:
                server = service.serve_sharded(service_name, servant_factory, shards, **kwargs)
            servers.append(server)
            self.run(0.25)
        self.settle(settle)
        for server in servers:
            if not server.ready.done:
                raise DeploymentError(f"replica failed to start: {server!r}")
            if shards is not None and not server.provisioned:
                raise DeploymentError(
                    f"unprovisioned: {count} replicas cannot fill {shards} shards: {server!r}"
                )
        return servers

    def bind_clients(self, count: int, bind: Callable[[NewTopService], Any], settle: float):
        """Add client nodes ``c0..c<count-1>``, call ``bind(service)`` on each
        0.05 s apart, settle, check ``.ready``; returns what ``bind`` returned
        (a ``GroupBinding``, a ``CombinedBinding``, a ``ShardedKVClient``)."""
        bound = []
        for service in self.add_clients(count):
            bound.append(bind(service))
            self.run(0.05)
        self.settle(settle)
        for index, binding in enumerate(bound):
            if not binding.ready.done:
                raise DeploymentError(f"c{index}'s binding failed to become ready: {binding!r}")
        return bound

    def form_peer_group(self, count: int, config: GroupConfig, settle: float):
        """Peer nodes ``p0..`` in one group ``conf``: ``p0`` creates it, the
        rest join 0.2 s apart, settle, check ``.joined``.  Returns the
        sessions and a :class:`PeerTracker` wired to their deliveries."""
        services = self.add_peers(count)
        sessions = [services[0].create_peer_group("conf", config)]
        for service in services[1:]:
            sessions.append(service.join_peer_group("conf", services[0].name))
            self.run(0.2)
        self.settle(settle)
        for session in sessions:
            if not session.joined.done:
                raise DeploymentError(f"peer failed to join: {session!r}")
        tracker = PeerTracker([session.member_id for session in sessions])
        for session in sessions:
            tracker.wire(session)
        return sessions, tracker
