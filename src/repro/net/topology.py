"""Sites and inter-site latency topology.

A *site* models one location in the paper's evaluation (a LAN segment:
Newcastle, London, Pisa).  Nodes within a site talk over the site's
intra-site latency model; nodes at different sites use the pairwise
inter-site model.  Bandwidth (for serialisation delay) is also per link
class.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.latency import FixedLatency, JitteredLatency, LatencyModel

__all__ = ["Topology", "LinkSpec"]


class LinkSpec:
    """Latency model + bandwidth for one link class."""

    __slots__ = ("latency", "bandwidth_bps", "loss")

    def __init__(self, latency: LatencyModel, bandwidth_bps: float, loss: float = 0.0):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.loss = loss

    def __repr__(self) -> str:
        return (
            f"LinkSpec({self.latency!r}, {self.bandwidth_bps / 1e6:.0f}Mbps, "
            f"loss={self.loss})"
        )


class Topology:
    """A set of sites and the link specs between them."""

    #: 100 Mbit fast Ethernet, as in the paper's LAN.
    DEFAULT_LAN_BANDWIDTH = 100e6
    #: one-way delay inside a site (a switched LAN segment)
    LAN_LATENCY = 120e-6
    #: A 2000-era trans-European Internet access link: effective per-flow
    #: throughput on the order of 1-2 Mbit/s.  Low WAN bandwidth is what
    #: makes a client's direct multicast to the replicas unattractive and
    #: motivates the open-group approach (§1, §5.1.3).
    DEFAULT_WAN_BANDWIDTH = 2e6

    def __init__(self):
        self._sites: Dict[str, LinkSpec] = {}
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._default_wan: Optional[LinkSpec] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_site(self, name: str, latency: LatencyModel, loss: float = 0.0) -> str:
        """Register a site: a 100 Mbit LAN segment with ``latency`` inside it."""
        if name in self._sites:
            raise ValueError(f"site {name!r} already exists")
        self._sites[name] = LinkSpec(latency, self.DEFAULT_LAN_BANDWIDTH, loss)
        return name

    def connect(
        self, site_a: str, site_b: str, latency: LatencyModel, loss: float = 0.0
    ) -> None:
        """Set the (symmetric) inter-site link spec."""
        self._require_site(site_a)
        self._require_site(site_b)
        spec = LinkSpec(latency, self.DEFAULT_WAN_BANDWIDTH, loss)
        self._links[self._key(site_a, site_b)] = spec

    def set_default_wan(self, latency: LatencyModel, loss: float = 0.0) -> None:
        """Fallback spec for site pairs without an explicit link."""
        self._default_wan = LinkSpec(latency, self.DEFAULT_WAN_BANDWIDTH, loss)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def sites(self):
        return tuple(self._sites)

    def has_site(self, name: str) -> bool:
        return name in self._sites

    def link(self, site_a: str, site_b: str) -> LinkSpec:
        """The link spec used between two sites (intra-site if equal)."""
        self._require_site(site_a)
        self._require_site(site_b)
        if site_a == site_b:
            return self._sites[site_a]
        spec = self._links.get(self._key(site_a, site_b))
        if spec is None:
            spec = self._default_wan
        if spec is None:
            raise KeyError(f"no link between sites {site_a!r} and {site_b!r}")
        return spec

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def _require_site(self, name: str) -> None:
        if name not in self._sites:
            raise KeyError(f"unknown site {name!r}")

    # ------------------------------------------------------------------
    # convenience builders
    # ------------------------------------------------------------------
    @classmethod
    def single_lan(cls, name: str = "lan") -> "Topology":
        """One 100 Mbit LAN segment (the paper's local configuration)."""
        topo = cls()
        topo.add_site(name, JitteredLatency(cls.LAN_LATENCY, jitter=0.2))
        return topo

    @classmethod
    def paper_wan(cls) -> "Topology":
        """Newcastle / London / Pisa, calibrated to the paper's Table 1.

        One-way delays chosen so that plain CORBA round trips land near the
        paper's reported bands (LAN ≈ 1 ms; London↔Newcastle ≈ 12 ms RTT;
        Pisa↔Newcastle ≈ 24 ms RTT; Pisa↔London ≈ 20 ms RTT).
        """
        topo = cls()
        for site in ("newcastle", "london", "pisa"):
            topo.add_site(site, JitteredLatency(cls.LAN_LATENCY, jitter=0.2))
        topo.connect("newcastle", "london", JitteredLatency(5.5e-3, jitter=0.15))
        topo.connect("newcastle", "pisa", JitteredLatency(11.5e-3, jitter=0.15))
        topo.connect("london", "pisa", JitteredLatency(9.5e-3, jitter=0.15))
        return topo
