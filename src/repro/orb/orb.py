"""The object request broker.

One ORB per node.  It provides what the paper's omniORB2 provided: servant
registration, synchronous request/reply invocation, and oneway invocation —
strictly one-to-one.  Multicast does not exist at this level; the NewTop
layers implement it by invoking each member in turn (the very inefficiency
the paper measures and attributes to the lack of a messaging service, §2.2).

Invocations on a servant hosted by the *same* node bypass the network
entirely, matching the paper's colocated client/NSO deployment
("request-reply message pairs m1–m6, m3–m4 will not generate any network
traffic", §5.1.1).

Remote invocations cross the simulated network *by reference*: the network
carries the ``Request``/``Reply`` struct itself at the size
``marshal.wire_size`` gives it, summed from a memoised header and the
arguments — marshalling is charged where the paper's hosts paid
it, as virtual CPU per byte (``repro.net.node.PER_BYTE``), not by really encoding
between two nodes that share one heap.  The contract that makes this sound is
the one colocated calls always had: a value handed to ``invoke`` belongs to
the wire from then on — the sender does not mutate it, receivers treat it as
read-only (copy before changing).  ``ORB.verify_wire`` is the reference path
that checks it.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ApplicationError, BadOperation, CommFailure, ObjectNotFound
from repro.net.node import Node
from repro.obs.metrics import OnFirstUse
from repro.orb import marshal
from repro.orb.ior import IOR
from repro.orb.messages import (
    GIOP_OVERHEAD,
    Reply,
    Request,
    STATUS_EXCEPTION,
    STATUS_NOT_FOUND,
    STATUS_OK,
)
from repro.sim.futures import Future, SimTimeout
from repro.sim.process import with_timeout

__all__ = [
    "ORB",
    "DISPATCH_OVERHEAD",
    "LOCAL_CALL_OVERHEAD",
    "DEFAULT_SERVANT_COST",
    "servant_operation",
]

#: CPU seconds to demultiplex a request and locate the servant.
DISPATCH_OVERHEAD = 40e-6
#: CPU seconds for a colocated (same address space) invocation.
LOCAL_CALL_OVERHEAD = 15e-6
#: CPU seconds charged for a servant method with no declared cost.
DEFAULT_SERVANT_COST = 20e-6
#: the one object adapter: every reference this ORB hands out names it, and
#: it stays on the wire (``IOR.adapter``) as omniORB2's root POA did
ROOT_ADAPTER = "RootPOA"
#: strings each ORB's size memo takes before it stops growing
STR_MEMO_ENTRIES = 4096
#: a ``Reply`` less its value: request id and status are fixed-size ints
REPLY_HEADER = marshal.wire_size(Reply(0, STATUS_OK, None)) - marshal.wire_size(None)


def servant_operation(servant: Any, operation: str) -> Tuple[float, Optional[Callable]]:
    """The dispatch rule: ``(cost, method)`` of ``operation`` on ``servant``.

    A servant is any Python object; its operations are its public callable
    attributes, so ``method`` is None for a private, missing or
    non-callable one.  ``cost`` is the CPU seconds the servant declares for
    the operation in an ``OP_COSTS`` dict (``{"operation": seconds}``, to
    model compute-heavy services), else ``DEFAULT_SERVANT_COST``.  The ORB
    and every object group replica dispatch by this one rule.
    """
    method = None if operation.startswith("_") else getattr(servant, operation, None)
    costs = getattr(servant, "OP_COSTS", None)
    cost = costs[operation] if costs and operation in costs else DEFAULT_SERVANT_COST
    return cost, method if callable(method) else None


class ORB:
    """Object request broker bound to one simulated node."""

    SERVICE = "orb"

    #: The reference path the tests compare against, never set by library
    #: code: when True every message is really encoded at send (its length
    #: checked against ``wire_size``), travels as bytes and is decoded on
    #: arrival, as separate address spaces would force.
    #: ``tests/test_orb_wire_equivalence.py`` holds the two modes to identical
    #: results, which is what gates the read-only contract above.
    verify_wire = False

    def __init__(self, node: Node):
        self.node = node
        self.sim = node.sim
        #: object key -> active servant
        self._servants: Dict[str, Any] = {}
        self._object_ids = itertools.count(1)
        self._request_id = 0  # the last one used
        self._pending: Dict[int, Future] = {}
        # oneway invocations all resolve with None the moment the request is
        # handed to the transport: hand every caller the same already-resolved
        # future instead of allocating one per send (callbacks on a resolved
        # future fire immediately and are never stored)
        self._oneway_done = Future(name="oneway")
        self._oneway_done.resolve(None)
        # (object key, operation) -> (dispatch cost, servant, bound method),
        # resolved once instead of per request; emptied whenever a servant is
        # activated or deactivated, so an entry never outlives its object id
        self._dispatch: Dict[Tuple[str, str], Tuple[float, Any, Any]] = {}
        # a hop is sized from parts sized once: the request header per
        # (object key, operation, oneway), and identifiers through a memo of
        # this ORB's own — a module-global one would make a run's call count
        # depend on what ran before it in the same process
        self._headers: Dict[Tuple[str, str, bool], int] = OnFirstUse(self._request_header)
        self._strs = marshal.StrSizes(STR_MEMO_ENTRIES)
        node.register(self.SERVICE, self._on_message)

    # ------------------------------------------------------------------
    # servant management
    # ------------------------------------------------------------------
    def register(self, servant: Any, object_id: Optional[str] = None) -> IOR:
        """Activate ``servant`` and return its IOR."""
        self._dispatch.clear()
        if object_id is None:
            object_id = f"{type(servant).__name__.lower()}-{next(self._object_ids)}"
        ior = IOR(self.node.name, ROOT_ADAPTER, object_id)
        if ior.key in self._servants:
            raise ValueError(f"object id {object_id!r} already active on {self.node.name}")
        self._servants[ior.key] = servant
        return ior

    def deactivate(self, ior: IOR) -> None:
        self._dispatch.clear()
        self._servants.pop(ior.key, None)

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------
    def invoke(
        self,
        target: IOR,
        operation: str,
        args: Tuple = (),
        oneway: bool = False,
        timeout: Optional[float] = None,
        net_kind: Optional[str] = None,
    ) -> Future:
        """Invoke ``operation(*args)`` on the servant named by ``target``.

        Returns a future with the reply value.  Oneway invocations resolve
        (with None) as soon as the request has been handed to the transport.
        On ``timeout`` (seconds) the future fails with :class:`CommFailure`.
        ``net_kind`` attributes the request's network hop to a protocol
        message kind for per-kind traffic accounting (see ``NetworkStats``).
        """
        if target.node == self.node.name:
            return self._invoke_local(target, operation, args, oneway)

        self._request_id = request_id = self._request_id + 1
        reply_node = "" if oneway else self.node.name
        key = target.key
        request = Request(request_id, key, operation, tuple(args), oneway, reply_node)
        # the arguments are walked on every call, so an unmarshallable one
        # raises MarshalError here, at the call site
        header = self._headers[key, operation, oneway]
        wire = marshal.sum_sizes(request.args, header, self._strs)
        payload = self._encoded(request, wire) if self.verify_wire else request
        size = wire + GIOP_OVERHEAD

        if oneway:
            self.node.send(target.node, self.SERVICE, payload, size, kind=net_kind)
            return self._oneway_done

        fut = Future(name=f"invoke:{target.node}.{operation}#{request_id}")
        self._pending[request_id] = fut
        self.node.send(target.node, self.SERVICE, payload, size, kind=net_kind)
        if timeout is None:
            return fut
        wrapped = with_timeout(self.sim, fut, timeout)
        result = Future(name=fut.name + ":to")

        def on_done(f: Future) -> None:
            self._pending.pop(request_id, None)
            if f.failed:
                exc = f.exception
                if isinstance(exc, SimTimeout):
                    exc = CommFailure(
                        f"no reply from {target.node} for {operation} within {timeout}s"
                    )
                result.fail(exc)
            else:
                result.resolve(f.result())

        wrapped.add_done_callback(on_done)
        return result

    def _request_header(self, route: Tuple[str, str, bool]) -> int:
        """Size of a ``Request`` along ``route`` with no arguments; each
        argument adds its own size (request ids are fixed-size ints)."""
        key, operation, oneway = route
        reply_node = "" if oneway else self.node.name
        return marshal.wire_size(Request(0, key, operation, (), oneway, reply_node))

    @staticmethod
    def _encoded(message: Any, size: int) -> bytes:
        """``verify_wire`` only: the bytes ``message`` occupies on the wire."""
        data = marshal.encode(message)
        if len(data) != size:
            raise marshal.MarshalError(
                f"wire_size says {size} bytes, encode produced {len(data)}: {message!r}"
            )
        return data

    def _invoke_local(self, target: IOR, operation: str, args: Tuple, oneway: bool) -> Future:
        """Colocated call: no marshalling, no network, small CPU cost."""
        fut = Future(name=f"local:{operation}")
        key = target.key
        entry = self._dispatch.get((key, operation)) or self._resolve(key, operation)

        def run() -> None:
            if entry is None:
                fut.fail(ObjectNotFound(key))
                return
            self._execute(entry, operation, args, fut if not oneway else None)
            if oneway and not fut.done:
                fut.resolve(None)

        self.node.execute(LOCAL_CALL_OVERHEAD, run)
        return fut

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def _on_message(self, src: str, message: Any, size: int) -> None:
        """The end of a message's receive job: a reply resolves its call; a
        request is resolved and its dispatch submitted as the next CPU job,
        or it is answered ``STATUS_NOT_FOUND`` at once (a oneway is dropped)
        when no such object is active."""
        if self.verify_wire:
            message = marshal.decode(message)
        cls = type(message)
        if cls is not Request:
            if cls is Reply:
                self._handle_reply(message)
            return
        key, operation = message.object_key, message.operation
        entry = self._dispatch.get((key, operation)) or self._resolve(key, operation)
        if entry is None:
            if not message.oneway:
                self._send_reply(message, STATUS_NOT_FOUND, key)
            return
        done: Optional[Future] = None
        if not message.oneway:
            done = Future(name=f"dispatch:{operation}#{message.request_id}")
            done.add_done_callback(lambda f: self._reply_from_future(message, f))
        self.node.execute(entry[0], self._execute, entry, operation, message.args, done)

    def _resolve(self, object_key: str, operation: str) -> Optional[Tuple[float, Any, Any]]:
        """The dispatch entry ``(cost, servant, method)`` of a request, or
        None when no such object is active.  ``method`` is None for an
        operation the servant does not offer: the caller still charges
        ``cost`` and :meth:`_execute` fails the call after it, so a bad
        request occupies the CPU exactly like a good one."""
        servant = self._servants.get(object_key)
        if servant is None:
            return None
        cost, method = servant_operation(servant, operation)
        entry = (DISPATCH_OVERHEAD + cost, servant, method)
        if method is not None:
            self._dispatch[object_key, operation] = entry
        return entry

    def _execute(
        self, entry: Tuple[float, Any, Any], operation: str, args: Tuple, done: Optional[Future]
    ) -> None:
        """Run the servant method; propagate its result/exception to ``done``.

        A servant method may return a :class:`Future` to defer its reply —
        the request-manager machinery in the invocation layer relies on this.
        """
        _cost, servant, method = entry
        if method is None:
            if done:
                private = operation.startswith("_")
                name = operation if private else f"{type(servant).__name__}.{operation}"
                done.fail(BadOperation(name))
            return
        try:
            result = method(*args)
        except Exception as exc:  # noqa: BLE001 - servant errors go to caller
            if done:
                done.fail(ApplicationError(str(exc)))
            return
        if done is None:
            return
        if isinstance(result, Future):
            result.then(lambda value: value, into=done)
        else:
            done.resolve(result)

    def _reply_from_future(self, request: Request, fut: Future) -> None:
        if fut.failed:
            self._send_reply(request, STATUS_EXCEPTION, str(fut.exception))
        else:
            self._send_reply(request, STATUS_OK, fut.result())

    def _send_reply(self, request: Request, status: int, value: Any) -> None:
        if not request.reply_node:
            return
        reply = Reply(request.request_id, status, value)
        size = marshal.sum_sizes((value,), REPLY_HEADER, self._strs)
        payload = self._encoded(reply, size) if self.verify_wire else reply
        self.node.send(request.reply_node, self.SERVICE, payload, size + GIOP_OVERHEAD)

    def _handle_reply(self, reply: Reply) -> None:
        fut = self._pending.pop(reply.request_id, None)
        if fut is None or fut.done:
            return
        if reply.status == STATUS_OK:
            fut.resolve(reply.value)
        elif reply.status == STATUS_NOT_FOUND:
            fut.fail(ObjectNotFound(str(reply.value)))
        else:
            fut.fail(ApplicationError(str(reply.value)))
