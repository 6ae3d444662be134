"""Helpers for invocation-layer tests: app clusters with registry + services."""

from typing import Dict, List, Optional

from repro.core import NewTopService
from repro.groupcomm import Liveliness
from repro.net import Network, Topology
from repro.orb import NameServer, ORB
from repro.sim import Simulator


class AppCluster:
    """Nodes with full NewTop stacks plus a dedicated name-server node."""

    def __init__(
        self,
        servers: int = 3,
        clients: int = 1,
        topology: Optional[Topology] = None,
        seed: int = 1,
        server_sites: Optional[List[str]] = None,
        client_sites: Optional[List[str]] = None,
    ):
        self.sim = Simulator(seed=seed)
        self.topology = topology or Topology.single_lan()
        self.net = Network(self.sim, self.topology)
        default_site = self.topology.sites[0]

        registry_node = self.net.new_node("registry", default_site)
        registry_orb = ORB(registry_node)
        self.name_server_ref = registry_orb.register(
            NameServer(), object_id="NameService"
        )

        self.server_names: List[str] = []
        self.client_names: List[str] = []
        self.services: Dict[str, NewTopService] = {}
        for i in range(servers):
            name = f"s{i}"
            site = server_sites[i] if server_sites else default_site
            self._add_node(name, site)
            self.server_names.append(name)
        for i in range(clients):
            name = f"c{i}"
            site = client_sites[i] if client_sites else default_site
            self._add_node(name, site)
            self.client_names.append(name)

    def _add_node(self, name: str, site: str) -> None:
        node = self.net.new_node(name, site)
        self.services[name] = NewTopService(ORB(node), name_server=self.name_server_ref)

    def server(self, index: int) -> NewTopService:
        return self.services[self.server_names[index]]

    def client(self, index: int) -> NewTopService:
        return self.services[self.client_names[index]]

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def serve_all(self, service_name: str, servant_factory, **kwargs):
        """Start one server per server node, sequentially; returns servers."""
        servers = []
        for i, name in enumerate(self.server_names):
            servers.append(
                self.services[name].serve(service_name, servant_factory(), **kwargs)
            )
            self.run(0.2)  # let creation/advertisement land before the next join
        self.run(0.5)
        assert all(s.ready.done for s in servers), "servers failed to start"
        return servers


def cancelled(timer) -> bool:
    """Whether a :class:`~repro.sim.core.Deadline` is disarmed."""
    return timer.due is None


def bind_scheme(
    cluster: AppCluster,
    service_name: str = "svc",
    client: int = 0,
    scheme=None,
    fast: bool = False,
    settle: float = 1.0,
    **bind_kwargs,
):
    """One client binding, bound and ready (the setup most tests hand-roll).

    ``scheme`` selects an invocation-scheme × reply-scheme cell
    (:class:`repro.core.SchemeConfig`); ``fast=True`` applies the lively /
    100 ms-suspicion settings the failure tests use.  Runs the sim for
    ``settle`` and asserts readiness.
    """
    if fast:
        bind_kwargs.setdefault("liveliness", Liveliness.LIVELY)
        bind_kwargs.setdefault("suspicion_timeout", 100e-3)
    binding = cluster.client(client).bind(service_name, scheme=scheme, **bind_kwargs)
    cluster.run(settle)
    assert binding.ready.done, f"binding did not become ready: {binding!r}"
    return binding


def bind_combined_cohort(
    cluster: AppCluster,
    scheme,
    service_name: str = "svc",
    settle: float = 1.0,
    **bind_kwargs,
):
    """One :class:`~repro.core.CombinedBinding` per cohort member, all ready.

    ``scheme.callers`` names the cohort (cluster node names); extra keyword
    arguments configure the rank-0 root's underlying binding.
    """
    bindings = [
        cluster.services[name].bind(service_name, scheme=scheme, **bind_kwargs)
        for name in scheme.callers
    ]
    cluster.run(settle)
    for binding in bindings:
        assert binding.ready.done, f"combined binding not ready: {binding!r}"
    return bindings


class Counter:
    """A deterministic stateful servant used across invocation tests."""

    OP_COSTS = {"incr": 20e-6, "get": 10e-6}

    def __init__(self):
        self.value = 0

    def incr(self, amount=1):
        self.value += amount
        return self.value

    def get(self):
        return self.value

    def fail(self):
        raise ValueError("servant failure")

    def get_state(self):
        return self.value

    def set_state(self, state):
        self.value = state
