"""Admission control: bounded inflight and pushback.

One :class:`AdmissionController` guards one admission point — a request
manager deciding whether to re-multicast an arriving call, or a client
binding deciding whether to issue one.  The decision combines two
signals, cheapest first:

1. **Inflight bound** — at most ``max_inflight`` admitted calls may be
   outstanding at this point.  O(1), catches bursts instantly.
2. **Pushback** — the group-wide advertised send-path pressure
   (:meth:`~repro.groupcomm.session.GroupSession.group_pushback`),
   piggybacked on existing reverse traffic.  Sheds when any member's
   window/queue/ordering backlog saturates, before the damage spreads.

A shed returns a retry-after hint scaled by the observed pressure; the
client's :class:`~repro.recovery.RetryPolicy` caps and jitters it.  A
bounded flow queue that refuses a send sheds too, wherever it sits:
:func:`shed_on_overflow` counts it and gives its hint.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional

__all__ = ["AdmissionConfig", "AdmissionController", "shed_on_overflow"]

#: group pushback in [0, 1] at or above which a call is shed
PUSHBACK_HIGH = 0.95
#: base retry-after hint in seconds, scaled by the observed pressure
RETRY_AFTER = 50e-3


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission policy for one binding/manager.

    ``max_inflight=0`` disables the inflight bound; pushback at or above
    ``PUSHBACK_HIGH`` always sheds.
    """

    max_inflight: int = 64

    def __post_init__(self):
        if self.max_inflight < 0:
            raise ValueError("admission.max_inflight must be >= 0")

    @classmethod
    def from_dict(cls, data: Dict) -> "AdmissionConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"admission spec has unknown keys {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> Dict:
        return asdict(self)


def shed_on_overflow(metrics) -> float:
    """A bounded flow queue refused a send, at a binding or a request
    manager: count the shed and return its retry-after hint (full
    pressure, whether or not an admission policy is configured there)."""
    metrics.counter("overload.shed").inc()
    return RETRY_AFTER * 4.0


class AdmissionController:
    """Enforces one :class:`AdmissionConfig` at one admission point.

    ``try_admit`` returns ``None`` to admit (claiming an inflight slot the
    caller must give back via :meth:`release` when the call completes or
    fails) or a retry-after hint in seconds to shed.
    """

    __slots__ = ("config", "name", "inflight", "_admitted_c", "_shed_c")

    def __init__(self, sim, config: AdmissionConfig, name: str = ""):
        self.config = config
        self.name = name
        self.inflight = 0
        metrics = sim.obs.metrics
        self._admitted_c = metrics.counter("overload.admitted")
        self._shed_c = metrics.counter("overload.shed")
        metrics.pull_gauge("overload.inflight", lambda: self.inflight)

    def try_admit(self, pushback: float = 0.0) -> Optional[float]:
        """Admit (``None``) or shed (retry-after hint in seconds)."""
        max_inflight = self.config.max_inflight
        if max_inflight and self.inflight >= max_inflight:
            return self._shed(1.0)
        if pushback >= PUSHBACK_HIGH:
            return self._shed(pushback)
        self.inflight += 1
        self._admitted_c.inc()
        return None

    def release(self) -> None:
        """An admitted call finished (or failed): free its inflight slot."""
        if self.inflight > 0:
            self.inflight -= 1

    def reset(self) -> None:
        """Process restart: every in-flight slot died with its collector."""
        self.inflight = 0

    def _shed(self, pressure: float) -> float:
        self._shed_c.inc()
        # heavier pressure earns a longer hint: 1x..4x the base
        return RETRY_AFTER * (1.0 + 3.0 * min(1.0, pressure))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AdmissionController {self.name or '?'} inflight={self.inflight}>"
