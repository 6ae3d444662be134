"""Post-recovery convergence: do the live members agree again?

After a crash→restart or partition→heal the group has *converged* when
every live serving node (node alive, hosting a member of the service):

- has an active server-group session whose installed view is shared by all
  of them, and whose membership is exactly the set of live serving nodes
  (nobody shrunk out, nobody stale);
- reports the same servant state digest (the state transfer actually
  brought the rejoiner back in sync — replica divergence would silently
  break active replication's "any reply is the answer" contract);
- has membership settled: no flush in progress, and no membership frame of
  the group (join, leave, suspicion, flush, install) sent to a live node
  and not yet acknowledged.  Equal views are not enough: a suspicion sent
  during a partition is delivered after the heal and can still expel a
  member.  Data frames do not count — a lively group always has some in
  flight.

The status dict is deliberately JSON-friendly: the scenario runner embeds
it verbatim in reports, and :class:`~repro.recovery.manager.RecoveryManager`
polls it to decide which members still need a kick.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.groupcomm.membership import MESSAGES

__all__ = ["state_digest", "convergence_status"]


def state_digest(servant) -> Optional[str]:
    """A stable digest of the servant's transferable state (None if opaque)."""
    get_state = getattr(servant, "get_state", None)
    if get_state is None:
        return None
    return hashlib.sha256(repr(get_state()).encode()).hexdigest()[:16]


def _membership_unsettled(session, nodes) -> bool:
    """Is ``session``'s membership still moving: a flush in progress, or one
    of its group's membership frames unacknowledged by a live node?"""
    if session.state == "flushing" or session.membership.coordinating:
        return True
    return any(
        type(message) in MESSAGES
        and message.group == session.group
        and nodes[peer].alive
        for peer, message in session.service.channels.unacked()
    )


def convergence_status(services, service_name: str, net) -> Dict:
    """Convergence snapshot for one replicated service.

    ``services`` maps node name -> NewTopService (only nodes whose service
    hosts a member of ``service_name`` participate); ``net`` supplies
    liveness.  Returns::

        {"converged": bool, "live": [...], "view": [...] | None,
         "views": {member: [...] | None}, "digests": {member: str | None},
         "stragglers": [...], "detail": str}

    ``view`` is the *primary* candidate (largest membership among the live
    members' installed views); ``stragglers`` are live members whose own
    session does not carry it — the ones a recovery manager should rejoin.
    """
    servers = {}
    for name, service in services.items():
        server = getattr(service, "servers", {}).get(service_name)
        if server is None:
            continue
        node = net.nodes.get(name)
        if node is None or not node.alive:
            continue
        servers[name] = server

    views: Dict[str, Optional[tuple]] = {}
    for name, server in servers.items():
        session = server.group
        if session is None or session.state == "closed" or session.view is None:
            views[name] = None
        else:
            views[name] = tuple(sorted(session.view.members))

    live = sorted(servers)
    candidates = [view for view in views.values() if view]
    primary = max(candidates, key=lambda v: (len(v), v)) if candidates else None
    digests = {name: state_digest(server.servant) for name, server in servers.items()}

    view_ok = (
        primary is not None
        and all(views[name] == primary for name in live)
        and set(primary) == set(live)
    )
    state_ok = len(set(digests.values())) <= 1
    unsettled = [
        name
        for name, server in servers.items()
        if server.group is not None
        and server.group.state != "closed"
        and _membership_unsettled(server.group, net.nodes)
    ]
    converged = bool(live) and view_ok and state_ok and not unsettled

    # members the recovery manager should actively rejoin: session closed /
    # not installed, or fallen out of the primary view entirely.  A member
    # *inside* the primary whose own view lags is mid-flush — leave it be.
    stragglers = [
        name
        for name in live
        if views[name] is None or (primary is not None and name not in primary)
    ]

    if converged:
        detail = f"{len(live)} members share view and state"
    elif not live:
        detail = "no live members"
    elif not view_ok:
        detail = f"views diverge: {views}"
    elif not state_ok:
        detail = f"state digests diverge: {digests}"
    else:
        detail = f"membership still moving at {unsettled}"
    return {
        "converged": converged,
        "live": live,
        "view": list(primary) if primary is not None else None,
        "views": {name: (list(v) if v is not None else None) for name, v in views.items()},
        "digests": digests,
        "stragglers": stragglers,
        "detail": detail,
    }
