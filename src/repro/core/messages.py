"""Invocation-layer payloads.

These travel *inside* group multicasts (as DataMsg payloads) and inside
direct ORB invocations (closed-group replies, reply sets), so they are all
marshallable structs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.orb.marshal import corba_struct

__all__ = [
    "InvokeMsg",
    "report_hold",
    "ReplyMsg",
    "ReplySet",
    "ShedReply",
    "StateUpdate",
    "StateSnapshot",
    "ScatterArgs",
    "Contribution",
    "CombinedReply",
    "ForwardedReply",
]


@corba_struct
class InvokeMsg:
    """A client request travelling through group communication.

    ``call_no`` is the client's per-binding call number; retried calls reuse
    it so servers can suppress re-execution (§4.1).  ``forwarded`` marks a
    request manager's re-multicast inside the server group; ``reply_group``
    names the group replies should be multicast in for group-to-group
    invocations (the client monitor group gz, §4.3).
    """

    __slots__ = (
        "client", "call_no", "operation", "args", "mode",
        "forwarded", "reply_group", "call_id",
    )
    #: wire fields only: ``call_id``, ``(client, call_no)``, is built with
    #: the message and never marshalled
    _fields = __slots__[:-1]

    def __init__(
        self,
        client: str,
        call_no: int,
        operation: str,
        args: Tuple,
        mode: str,
        forwarded: bool,
        reply_group: str,
    ):
        self.client = client
        self.call_no = call_no
        self.operation = operation
        self.args = args
        self.mode = mode
        self.forwarded = forwarded
        self.reply_group = reply_group
        self.call_id: Tuple[str, int] = (client, call_no)

    def __repr__(self) -> str:
        return f"<Invoke {self.client}#{self.call_no} {self.operation} {self.mode}>"


def report_hold(phases, payload: Any, held: bool) -> None:
    """A session's ``on_hold``, bound to ``phases``: a held request opens its
    call's flush wait, and a request sent while one is open closes it."""
    if isinstance(payload, InvokeMsg):
        (phases.on_flush_hold if held else phases.on_flush_release)(payload.call_id)


@corba_struct
class ReplyMsg:
    """One member's reply to one call."""

    __slots__ = ("client", "call_no", "member", "ok", "value", "call_id")
    _fields = __slots__[:-1]  # ``call_id``: see InvokeMsg

    def __init__(self, client: str, call_no: int, member: str, ok: bool, value: Any):
        self.client = client
        self.call_no = call_no
        self.member = member
        self.ok = ok
        self.value = value
        self.call_id: Tuple[str, int] = (client, call_no)

    def __repr__(self) -> str:
        return f"<Reply {self.client}#{self.call_no} from {self.member}>"


@corba_struct
class ReplySet:
    """The request manager's gathered replies, returned to the client."""

    __slots__ = ("client", "call_no", "replies", "call_id")
    _fields = __slots__[:-1]  # ``call_id``: see InvokeMsg

    def __init__(self, client: str, call_no: int, replies: List[ReplyMsg]):
        self.client = client
        self.call_no = call_no
        self.replies = list(replies)
        self.call_id: Tuple[str, int] = (client, call_no)


@corba_struct
class ShedReply:
    """Admission control refused the call before any execution.

    Sent back over the same reply path a :class:`ReplySet` would use, so it
    needs no new channels.  ``retry_after`` is the shedding member's backoff
    hint in seconds; the client's :class:`~repro.recovery.RetryPolicy` caps
    and jitters it.  Because the call was shed *before* the manager
    re-multicast (or the servant executed), nothing is cached for it — a
    later retry under the same call number runs fresh, exactly once.
    """

    __slots__ = ("client", "call_no", "member", "retry_after")
    _fields = __slots__

    def __init__(self, client: str, call_no: int, member: str, retry_after: float):
        self.client = client
        self.call_no = call_no
        self.member = member
        self.retry_after = retry_after

    def __repr__(self) -> str:
        return (
            f"<Shed {self.client}#{self.call_no} by {self.member} "
            f"retry_after={self.retry_after:.3f}>"
        )


@corba_struct
class StateUpdate:
    """Passive replication: the primary's post-execution state + reply."""

    __slots__ = ("client", "call_no", "state", "reply")
    _fields = __slots__

    def __init__(self, client: str, call_no: int, state: Any, reply: ReplyMsg):
        self.client = client
        self.call_no = call_no
        self.state = state
        self.reply = reply


@corba_struct
class StateSnapshot:
    """Coordinator -> joiner state transfer.

    Carries the servant state *and* the coordinator's duplicate-suppression
    caches, so a member that crashed and rejoined keeps masking retried
    calls it (or its previous incarnation) already answered: exactly-once
    semantics survive the restart.  ``servant_state`` may be ``None`` for
    servants without transferable state — the caches still matter.
    """

    __slots__ = ("servant_state", "reply_sets", "own_replies")
    _fields = __slots__

    def __init__(
        self,
        servant_state: Any,
        reply_sets: List[ReplySet],
        own_replies: List[ReplyMsg],
    ):
        self.servant_state = servant_state
        self.reply_sets = list(reply_sets)
        self.own_replies = list(own_replies)


@corba_struct
class ScatterArgs:
    """Personalized-invocation payload: the per-member argument scatter.

    Travels as the *single argument* of an ordinary :class:`InvokeMsg`, so
    the session protocol and the InvokeMsg wire format stay untouched; each
    member picks its own part at execution time.  Members absent from the
    plan (e.g. joined after the scatter was built) run ``default``.
    """

    __slots__ = ("parts", "default")
    _fields = __slots__

    def __init__(self, parts: Dict[str, Tuple], default: Tuple):
        self.parts = {member: tuple(args) for member, args in parts.items()}
        self.default = tuple(default)

    def part_for(self, member: str) -> Tuple:
        part = self.parts.get(member)
        return tuple(part) if part is not None else self.default

    def __repr__(self) -> str:
        return f"<ScatterArgs {sorted(self.parts)}>"


@corba_struct
class Contribution:
    """One (partially combined) share of a combined invocation.

    ``parts`` is a rank-keyed list of ``(rank, args)`` pairs — the leaves
    this share covers, always kept in rank order so merging is
    deterministic wherever it happens.  With an argument reducer, a
    combining node folds its segment down to a single pair; ``count``
    keeps the leaf tally the rendezvous accounting needs either way.
    """

    __slots__ = ("combine_id", "call_no", "rank", "parts", "count")
    _fields = __slots__

    def __init__(
        self, combine_id: str, call_no: int, rank: int, parts: List, count: int
    ):
        self.combine_id = combine_id
        self.call_no = call_no
        self.rank = rank
        self.parts = [(int(r), tuple(args)) for r, args in parts]
        self.count = count

    def __repr__(self) -> str:
        return (
            f"<Contribution {self.combine_id}#{self.call_no} "
            f"rank={self.rank} count={self.count}>"
        )


@corba_struct
class CombinedReply:
    """The root's outcome of one combined call, fanned back to the cohort."""

    __slots__ = ("combine_id", "call_no", "ok", "value")
    _fields = __slots__

    def __init__(self, combine_id: str, call_no: int, ok: bool, value: Any):
        self.combine_id = combine_id
        self.call_no = call_no
        self.ok = ok
        self.value = value


@corba_struct
class ForwardedReply:
    """A gathered reply delivered to a third party (reply scheme ``forward``).

    ``origin`` is the invoking client (combined calls: the root), so the
    forward target can attribute what it receives.
    """

    __slots__ = ("origin", "service", "operation", "call_no", "ok", "value")
    _fields = __slots__

    def __init__(
        self,
        origin: str,
        service: str,
        operation: str,
        call_no: int,
        ok: bool,
        value: Any,
    ):
        self.origin = origin
        self.service = service
        self.operation = operation
        self.call_no = call_no
        self.ok = ok
        self.value = value

    def __repr__(self) -> str:
        return f"<ForwardedReply {self.service}.{self.operation} from {self.origin}>"
