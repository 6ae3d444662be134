"""Simulated network substrate: topology, latency, hosts with serial CPUs.

Stands in for the paper's testbed (100 Mbit LAN at Newcastle; Internet paths
to London and Pisa).  See DESIGN.md §2 for the calibration argument.
"""

from repro.net.latency import FixedLatency, JitteredLatency, LatencyModel
from repro.net.network import Network, NetworkStats
from repro.net.node import Node
from repro.net.topology import LinkSpec, Topology

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "JitteredLatency",
    "Topology",
    "LinkSpec",
    "Node",
    "Network",
    "NetworkStats",
]
