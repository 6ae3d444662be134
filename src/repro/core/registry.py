"""Service registry: where clients learn a server group's membership.

A thin layer over the naming service (:mod:`repro.orb.naming`): each server
group advertises its member list (as an IOGR over the members' invocation
servants); the group's coordinator refreshes the entry on every view change.
Open-group clients use it to pick a request manager and to **rebind** after
a manager failure (§4.1).
"""

from __future__ import annotations

from typing import List, Optional

from repro.orb.ior import IOGR, IOR
from repro.orb.naming import NamingClient
from repro.orb.orb import ORB
from repro.sim.futures import Future

__all__ = ["ServiceRegistry", "server_servant_id", "client_sink_id"]


def server_servant_id(service_name: str) -> str:
    """Object id of a member's invocation servant for ``service_name``."""
    return f"OGS:{service_name}"


def client_sink_id(client_id: str) -> str:
    """Object id of a client's reply sink servant."""
    return f"SINK:{client_id}"


class ServiceRegistry:
    """Client/server view of the service registry."""

    def __init__(self, orb: ORB, name_server_ref: IOR):
        self.orb = orb
        self.naming = NamingClient(orb, name_server_ref)

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def advertise(self, service_name: str, members: List[str]) -> Future:
        """Publish (or refresh) the member list for a service."""
        iogr = IOGR(
            [
                IOR(member, "RootPOA", server_servant_id(service_name))
                for member in members
            ],
            primary=0,
        )
        return self.naming.rebind(f"group:{service_name}", iogr)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def lookup(self, service_name: str) -> Future:
        """Resolve the service's IOGR (fails if not advertised)."""
        return self.naming.resolve(f"group:{service_name}")

    @staticmethod
    def members_of(iogr: IOGR) -> List[str]:
        """Member node names embedded in a service IOGR."""
        return [profile.node for profile in iogr.profiles]
