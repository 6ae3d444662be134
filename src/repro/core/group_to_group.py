"""Group-to-group request/reply invocations (§4.3).

Members of a client group gx invoke a server group gy through a shared
request manager (a member of gy).  A *client monitor group* gz — gx's
members plus the manager — carries the requests and replies:

- every gx member multicasts the call in gz (same call number);
- the manager filters the duplicates, forwards one copy into gy using the
  open-group mechanism, and gathers gy's replies;
- the manager multicasts the reply set in gz, so delivery to gx's members
  is atomic (the design's single inter-group multicast).

Each gx member drives its own :class:`GroupToGroupBinding`: an open,
restricted :class:`~repro.core.client.GroupBinding` whose client/server
group is the shared gz.  Three things differ from a lone client's binding —
who is calling, where call numbers come from, and how the group forms —
and everything else (timeout, retry, shed handling, teardown, the root
span, the latency histogram) is inherited.
"""

from __future__ import annotations

import itertools
from typing import Any, List

from repro.core.client import GroupBinding
from repro.core.modes import BindingStyle
from repro.errors import BindingBroken, ConfigurationError

__all__ = ["GroupToGroupBinding"]


class GroupToGroupBinding(GroupBinding):
    """One gx member's handle for invoking server group gy via gz."""

    def __init__(
        self,
        service,
        client_group: str,
        client_members: List[str],
        target_service: str,
        **bind_kwargs: Any,
    ):
        if getattr(bind_kwargs.get("scheme"), "is_combined", False):
            raise ConfigurationError("a combined scheme binds through bind(), not group-to-group")
        self.client_members = list(client_members)
        self.monitor_name = f"g2g:{client_group}:{target_service}"
        # open by construction: naming a style here is a TypeError
        super().__init__(service, target_service, style=BindingStyle.OPEN, **bind_kwargs)
        # call numbers advance in lock-step: members issue calls in reaction
        # to totally ordered gx deliveries
        self._next_call_no = itertools.count(1).__next__
        # the *group* is the logical caller, and gy's replies come back to
        # all of it through gz
        self._caller = client_group
        self._reply_group = self.monitor_name
        self._span_attrs = {"client_group": client_group}
        # gz's copies are one call to the servers: its phases belong to no
        # single member, so a g2g call enters no index and yields no
        # inv.phase.* breakdown
        self._calls = None

    def _bind_to(self, members: List[str]) -> None:
        """Build gz: the first gx member creates it, the others join
        through it, and every member asks the designated manager to join
        through it too — the manager joins once and answers a repeated ask
        at once, so each member hears whether gz can form (a dead manager
        fails the ask, and the bind, after the join timeout)."""
        self.servers = list(members)
        self.manager = members[0]
        initiator = self.client_members[0]
        if self.client_id == initiator:
            session = self.service.gcs.create_group(
                self.monitor_name, self.config.replace(sequencer_hint=self.manager)
            )
        else:
            session = self.service.gcs.join_group(self.monitor_name, initiator)
        self._adopt(session)
        # bound once gz holds gx and the manager
        self._ask_to_join(session, [self.manager], initiator, len(self.client_members) + 1)

    def _rebind(self, exclude: str) -> None:
        """gz lost its manager.  Every gx member sees that view change, but
        re-forming gz around a new manager needs their agreement on one —
        a coordinated rebind is out of scope, so the binding breaks: its
        outstanding calls and every later one fail ``BindingBroken``."""
        self._break(BindingBroken(f"{self.monitor_name} lost its manager {exclude}"))
        self.close()
