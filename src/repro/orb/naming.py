"""A CORBA-naming-service stand-in.

Applications and the NewTop service locate groups through a name server: a
plain servant mapping names to object references (IORs or IOGRs).  The
NewTop group factory keeps the advertised IOGR for each server group fresh
as membership changes, which is what open-group clients use to rebind after
a request-manager failure.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.orb.orb import ORB
from repro.orb.ior import IOR
from repro.sim.futures import Future

__all__ = ["NameServer", "NamingClient"]


class NameServer:
    """Servant: a flat name → reference registry."""

    OP_COSTS = {"resolve": 10e-6, "rebind": 10e-6}

    def __init__(self):
        self._bindings: Dict[str, Any] = {}

    def rebind(self, name: str, ref: Any) -> bool:
        """Bind or replace."""
        self._bindings[name] = ref
        return True

    def resolve(self, name: str) -> Any:
        ref = self._bindings.get(name)
        if ref is None:
            raise KeyError(f"name {name!r} not bound")
        return ref


class NamingClient:
    """Client-side convenience wrapper around a remote :class:`NameServer`."""

    def __init__(self, orb: ORB, server_ref: IOR, timeout: Optional[float] = 2.0):
        self.orb = orb
        self.server_ref = server_ref
        self.timeout = timeout

    def rebind(self, name: str, ref: Any) -> Future:
        return self.orb.invoke(self.server_ref, "rebind", (name, ref), timeout=self.timeout)

    def resolve(self, name: str) -> Future:
        return self.orb.invoke(self.server_ref, "resolve", (name,), timeout=self.timeout)
