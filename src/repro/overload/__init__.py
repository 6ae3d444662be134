"""End-to-end overload control: admission, shedding, and pushback.

The open-loop scenario engine can offer 5-10x what a group can serve;
without admission control that means unbounded queues and timeout storms.
This package bounds the damage at the earliest possible point:

- :class:`AdmissionConfig` — declarative policy (the inflight bound; the
  pushback threshold and the retry-after hint are module constants);
- :class:`AdmissionController` — the enforcement point request managers
  and client bindings share.  A refused call is shed with a ``RetryAfter``
  hint *before* any execution, so exactly-once semantics are never at
  risk: there is nothing to deduplicate for a call that never ran;
- :func:`shed_on_overflow` — the one rule for a send a bounded flow queue
  refused, at a binding or a request manager alike, or that a manager's
  closed server-group session refused.

Servant-side pressure reaches the admission points through the group
sessions themselves: every data/NULL frame piggybacks the sender's
send-path occupancy (``DataMsg.pushback``), and
:meth:`~repro.groupcomm.session.GroupSession.group_pushback` exposes the
group-wide max.
"""

from repro.overload.admission import AdmissionConfig, AdmissionController, shed_on_overflow

__all__ = ["AdmissionConfig", "AdmissionController", "shed_on_overflow"]
