"""Invocation modes, binding styles, and replication policies (§2.1, §4).

- **Invocation modes** — how many replies a client waits for: one way send,
  wait for first, wait for majority, wait for all.
- **Binding styles** — how a client reaches a server group: closed (the
  client joins a client/server group spanning the whole server group) or
  open (a client/server group with exactly one member, the request manager),
  with the open style's two optimisations: restricted (every client uses the
  group's designated manager) and asynchronous forwarding (the manager
  answers ``wait_for_first`` itself and forwards one-way).
- **Replication policies** — active (every member executes) or passive (the
  primary executes; backups receive state updates).
"""

from __future__ import annotations

__all__ = [
    "Mode",
    "BindingStyle",
    "ReplicationPolicy",
    "InvocationScheme",
    "ReplyScheme",
    "replies_needed",
]


class Mode:
    """How many replies an invocation waits for."""

    ONE_WAY = "one_way"
    FIRST = "first"
    MAJORITY = "majority"
    ALL = "all"

    ALL_MODES = (ONE_WAY, FIRST, MAJORITY, ALL)


class BindingStyle:
    """How a client binds to a server group."""

    CLOSED = "closed"
    OPEN = "open"

    ALL_STYLES = (CLOSED, OPEN)


class ReplicationPolicy:
    """Which members execute requests."""

    ACTIVE = "active"
    PASSIVE = "passive"

    ALL_POLICIES = (ACTIVE, PASSIVE)


class InvocationScheme:
    """How callers map onto one group invocation (GMI terminology).

    Orthogonal to :class:`Mode` and :class:`BindingStyle`:

    - ``single`` — one caller, identical parameters at every member (the
      paper's plain group invocation);
    - ``personalized`` — one caller, per-member parameter scatter;
    - ``combined_flat`` — N callers rendezvous into *one* group call, every
      contribution travelling straight to the rank-0 root;
    - ``combined_tree`` — the same rendezvous over a binary combining tree
      (partial combines on the way up; the root's fan-in stays constant).
    """

    SINGLE = "single"
    PERSONALIZED = "personalized"
    COMBINED_FLAT = "combined_flat"
    COMBINED_TREE = "combined_tree"

    ALL_SCHEMES = (SINGLE, PERSONALIZED, COMBINED_FLAT, COMBINED_TREE)
    COMBINED_SCHEMES = (COMBINED_FLAT, COMBINED_TREE)


class ReplyScheme:
    """What happens to the replies of one (possibly combined) invocation.

    - ``discard`` — nobody waits; the call degenerates to a one-way send;
    - ``return_one`` — the caller gets one member's reply value;
    - ``forward`` — the gathered reply is handed to a third party, not the
      caller(s);
    - ``combine`` — the per-member reply values are folded through a
      reducer (validated at bind time) into one value for every caller.
    """

    DISCARD = "discard"
    RETURN_ONE = "return_one"
    FORWARD = "forward"
    COMBINE = "combine"

    ALL_SCHEMES = (DISCARD, RETURN_ONE, FORWARD, COMBINE)
    #: the invocation mode each reply scheme fixes at bind
    MODES = {
        DISCARD: Mode.ONE_WAY, RETURN_ONE: Mode.FIRST, FORWARD: Mode.FIRST, COMBINE: Mode.ALL
    }


def replies_needed(mode: str, group_size: int) -> int:
    """Replies required to satisfy ``mode`` against ``group_size`` servers."""
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    if mode == Mode.ONE_WAY:
        return 0
    if mode == Mode.FIRST:
        return 1
    if mode == Mode.MAJORITY:
        return group_size // 2 + 1
    if mode == Mode.ALL:
        return group_size
    raise ValueError(f"unknown invocation mode {mode!r}")
