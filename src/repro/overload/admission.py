"""Admission control: bounded inflight, queue-delay watermarks, pushback.

One :class:`AdmissionController` guards one admission point — a request
manager deciding whether to re-multicast an arriving call, or a client
binding deciding whether to issue one.  The decision combines three
signals, cheapest first:

1. **Inflight bound** — at most ``max_inflight`` admitted calls may be
   outstanding at this point.  O(1), catches bursts instantly.
2. **Pushback** — the group-wide advertised send-path pressure
   (:meth:`~repro.groupcomm.session.GroupSession.group_pushback`),
   piggybacked on existing reverse traffic.  Sheds when any member's
   window/queue/ordering backlog saturates, before the damage spreads.
3. **Queue-delay watermark** — the windowed mean of the
   ``inv.phase.queue`` histogram (the residual queueing phase of the
   obs latency decomposition), probed every ``PROBE_INTERVAL`` of
   virtual time with hysteresis: shedding starts at ``queue_delay_high``
   and stops at half of it.  This is the slow signal that catches
   creeping saturation the instantaneous ones miss.

A shed returns a retry-after hint scaled by the observed pressure; the
client's :class:`~repro.recovery.RetryPolicy` caps and jitters it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional

__all__ = ["AdmissionConfig", "AdmissionController"]

#: group pushback in [0, 1] at or above which a call is shed
PUSHBACK_HIGH = 0.95
#: virtual seconds between queue-delay watermark probes
PROBE_INTERVAL = 100e-3


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission policy for one binding/manager (all signals optional).

    ``max_inflight=0`` disables the inflight bound and
    ``queue_delay_high=0`` the watermark; pushback at or above
    ``PUSHBACK_HIGH`` always sheds.
    """

    max_inflight: int = 64
    queue_delay_high: float = 0.0  # seconds; 0 = watermark off
    retry_after: float = 50e-3  # base hint; scaled by observed pressure

    def __post_init__(self):
        if self.max_inflight < 0:
            raise ValueError("admission.max_inflight must be >= 0")
        if self.queue_delay_high < 0:
            raise ValueError("admission.queue_delay_high must be >= 0")
        if self.retry_after <= 0:
            raise ValueError("admission.retry_after must be > 0")

    @classmethod
    def from_dict(cls, data: Dict) -> "AdmissionConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"admission spec has unknown keys {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> Dict:
        return asdict(self)


class AdmissionController:
    """Enforces one :class:`AdmissionConfig` at one admission point.

    ``try_admit`` returns ``None`` to admit (claiming an inflight slot the
    caller must give back via :meth:`release` when the call completes or
    fails) or a retry-after hint in seconds to shed.
    """

    __slots__ = (
        "sim",
        "config",
        "name",
        "inflight",
        "_shedding",
        "_probe_at",
        "_seen_count",
        "_seen_total",
        "_queue_hist",
        "_admitted_c",
        "_shed_c",
        "_crossings_c",
        "_inflight_g",
    )

    def __init__(self, sim, config: AdmissionConfig, name: str = ""):
        self.sim = sim
        self.config = config
        self.name = name
        self.inflight = 0
        self._shedding = False
        self._probe_at = sim.now
        metrics = sim.obs.metrics
        self._queue_hist = metrics.histogram("inv.phase.queue")
        self._seen_count = self._queue_hist.count
        self._seen_total = self._queue_hist.total
        self._admitted_c = metrics.counter("overload.admitted")
        self._shed_c = metrics.counter("overload.shed")
        self._crossings_c = metrics.counter("overload.watermark_crossings")
        self._inflight_g = metrics.gauge("overload.inflight")

    # ------------------------------------------------------------------
    # decision
    # ------------------------------------------------------------------
    def try_admit(self, pushback: float = 0.0) -> Optional[float]:
        """Admit (``None``) or shed (retry-after hint in seconds)."""
        cfg = self.config
        if cfg.max_inflight and self.inflight >= cfg.max_inflight:
            return self._shed(1.0)
        if pushback >= PUSHBACK_HIGH:
            return self._shed(pushback)
        if cfg.queue_delay_high > 0 and self._over_watermark():
            return self._shed(0.75)
        self.inflight += 1
        self._inflight_g.add(1)
        self._admitted_c.inc()
        return None

    def release(self) -> None:
        """An admitted call finished (or failed): free its inflight slot."""
        if self.inflight > 0:
            self.inflight -= 1
            self._inflight_g.add(-1)

    def reset(self) -> None:
        """Process restart: every in-flight slot died with its collector."""
        if self.inflight:
            self._inflight_g.add(-self.inflight)
            self.inflight = 0
        self._shedding = False

    def count_shed(self) -> None:
        """Record a shed decided outside the controller (flow overflow)."""
        self._shed_c.inc()

    # ------------------------------------------------------------------
    # queue-delay watermark (probed, hysteresis)
    # ------------------------------------------------------------------
    def _over_watermark(self) -> bool:
        now = self.sim.now
        if now >= self._probe_at:
            hist = self._queue_hist
            window_count = hist.count - self._seen_count
            window_total = hist.total - self._seen_total
            self._seen_count = hist.count
            self._seen_total = hist.total
            self._probe_at = now + PROBE_INTERVAL
            if window_count > 0:
                mean = window_total / window_count
                if self._shedding:
                    if mean <= self.config.queue_delay_high / 2.0:
                        self._shedding = False
                elif mean >= self.config.queue_delay_high:
                    self._shedding = True
                    self._crossings_c.inc()
            elif self._shedding and self.inflight == 0:
                # nothing completed and nothing is in flight: the queues we
                # were protecting have drained out from under the watermark
                self._shedding = False
        return self._shedding

    def _shed(self, pressure: float) -> float:
        self._shed_c.inc()
        # heavier pressure earns a longer hint: 1x..4x the base
        return self.config.retry_after * (1.0 + 3.0 * min(1.0, pressure))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "shedding" if self._shedding else "open"
        return (
            f"<AdmissionController {self.name or '?'} "
            f"inflight={self.inflight} {state}>"
        )
