"""Mini-ORB: the CORBA stand-in the NewTop service is layered over.

Provides IOR/IOGR references, a CDR-style wire codec with honest sizes, one
object adapter (servants keyed by object key), synchronous and oneway
one-to-one invocation, and a naming service.
"""

from repro.orb.ior import IOGR, IOR
from repro.orb.marshal import MarshalError, corba_struct, decode, encode, wire_size
from repro.orb.messages import GIOP_OVERHEAD, Reply, Request
from repro.orb.naming import NameServer, NamingClient
from repro.orb.orb import DEFAULT_SERVANT_COST, DISPATCH_OVERHEAD, LOCAL_CALL_OVERHEAD, ORB

__all__ = [
    "ORB",
    "IOR",
    "IOGR",
    "NameServer",
    "NamingClient",
    "Request",
    "Reply",
    "corba_struct",
    "encode",
    "decode",
    "wire_size",
    "MarshalError",
    "GIOP_OVERHEAD",
    "DISPATCH_OVERHEAD",
    "LOCAL_CALL_OVERHEAD",
    "DEFAULT_SERVANT_COST",
]
