"""Shared test fixtures: simulated clusters with ORBs and NewTop services.

``--file-order-seed N`` runs the test files in an order shuffled by seed N,
each file's tests in their own order: no test may depend on what an earlier
file left behind."""

import random
from typing import Dict, List, Optional

import pytest

from repro.groupcomm import GroupCommService
from repro.net import Network, Topology
from repro.orb import ORB
from repro.sim import Simulator


class Cluster:
    """N nodes on one topology, each with an ORB and a GroupCommService."""

    def __init__(
        self,
        count: int = 3,
        topology: Optional[Topology] = None,
        seed: int = 1,
        sites: Optional[List[str]] = None,
        prefix: str = "n",
    ):
        self.sim = Simulator(seed=seed)
        self.topology = topology or Topology.single_lan()
        self.net = Network(self.sim, self.topology)
        self.names: List[str] = []
        self.orbs: Dict[str, ORB] = {}
        self.services: Dict[str, GroupCommService] = {}
        for i in range(count):
            name = f"{prefix}{i}"
            site = sites[i] if sites else self.topology.sites[0]
            node = self.net.new_node(name, site)
            orb = ORB(node)
            self.names.append(name)
            self.orbs[name] = orb
            self.services[name] = GroupCommService(orb)

    def service(self, index: int) -> GroupCommService:
        return self.services[self.names[index]]

    def orb(self, index: int) -> ORB:
        return self.orbs[self.names[index]]

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def run_all(self) -> None:
        self.sim.run()


class Collector:
    """Listener recording deliveries and views for one session."""

    def __init__(self, session=None):
        self.deliveries = []
        self.views = []
        if session is not None:
            self.attach(session)

    def attach(self, session) -> None:
        session.on_deliver = self.on_deliver
        session.on_view = self.on_view

    def on_deliver(self, sender, payload) -> None:
        self.deliveries.append((sender, payload))

    def on_view(self, view, joined, left) -> None:
        self.views.append((view, list(joined), list(left)))

    @property
    def payloads(self):
        return [payload for _sender, payload in self.deliveries]


@pytest.fixture
def cluster():
    return Cluster


@pytest.fixture
def collector():
    return Collector


def pytest_addoption(parser):
    parser.addoption(
        "--file-order-seed", type=int, default=None,
        help="run the test files in an order shuffled by this seed",
    )


def pytest_report_header(config):
    seed = config.getoption("--file-order-seed")
    return None if seed is None else f"file order shuffled with seed {seed}"


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--file-order-seed")
    if seed is None:
        return
    files = list(dict.fromkeys(item.path for item in items))
    random.Random(seed).shuffle(files)
    rank = {path: i for i, path in enumerate(files)}
    items.sort(key=lambda item: rank[item.path])  # stable: a file keeps its order
