"""Arrival processes for open-loop traffic generation.

The paper evaluates NewTop only with closed-loop clients (§5.1): a new
request is issued the moment the previous reply arrives, so the offered
load can never exceed the system's service rate.  Production traffic is
open-loop — arrivals keep coming whether or not the system keeps up — and
that is the regime where queueing collapse, failover stalls, and SLO
violations actually show.

Every process here exposes an **instantaneous rate function** ``rate(t)``
(``t`` in seconds since traffic start) plus a ``peak_rate`` upper bound.
Arrival times are drawn by Lewis–Shedler thinning against the peak rate
(:func:`next_arrival`), which handles homogeneous and time-varying
processes uniformly and stays deterministic because every draw comes from
one named simulation RNG stream.

Rates are **per virtual client**; the traffic generator multiplies by the
current population (see :mod:`repro.scenario.traffic`) so one generator
models thousands of virtual clients without one sim process each.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "RampArrivals",
    "DiurnalArrivals",
    "arrival_process_from_spec",
    "next_arrival",
]


class ArrivalProcess:
    """Base class: an instantaneous-rate description of an arrival stream."""

    #: tight upper bound on ``rate(t)`` for thinning; set by subclasses
    peak_rate: float = 0.0

    def rate(self, t: float) -> float:  # pragma: no cover - abstract
        """Instantaneous arrival rate (events/second) at elapsed time ``t``."""
        raise NotImplementedError


def _require_positive(name: str, value: float) -> float:
    if not value > 0:
        raise ValueError(f"arrival {name} must be > 0, got {value!r}")
    return float(value)


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at a fixed rate."""

    def __init__(self, rate: float):
        self._rate = _require_positive("rate", rate)
        self.peak_rate = self._rate

    def rate(self, t: float) -> float:
        return self._rate


class RampArrivals(ArrivalProcess):
    """Linear ramp from ``start_rate`` to ``end_rate`` over ``ramp`` seconds,
    holding ``end_rate`` afterwards — the load-test staple for finding the
    saturation knee."""

    def __init__(self, start_rate: float, end_rate: float, ramp: float):
        self.start_rate = _require_positive("start_rate", start_rate)
        self.end_rate = _require_positive("end_rate", end_rate)
        self.ramp = _require_positive("ramp", ramp)
        self.peak_rate = max(self.start_rate, self.end_rate)

    def rate(self, t: float) -> float:
        frac = min(max(t / self.ramp, 0.0), 1.0)
        return self.start_rate + (self.end_rate - self.start_rate) * frac


class DiurnalArrivals(ArrivalProcess):
    """A day-night cycle: sinusoidal rate between ``base_rate`` (trough) and
    ``peak_rate_value`` (crest) with the given ``period``.  ``phase`` shifts
    where in the cycle traffic starts (0 = trough)."""

    def __init__(self, base_rate: float, peak_rate: float, period: float, phase: float = 0.0):
        self.base_rate = _require_positive("base_rate", base_rate)
        self.peak_rate_value = _require_positive("peak_rate", peak_rate)
        if self.peak_rate_value < self.base_rate:
            raise ValueError("peak_rate must be >= base_rate")
        self.period = _require_positive("period", period)
        self.phase = float(phase)
        self.peak_rate = self.peak_rate_value

    def rate(self, t: float) -> float:
        swing = (self.peak_rate_value - self.base_rate) * 0.5
        cycle = 1.0 - math.cos(2.0 * math.pi * (t + self.phase) / self.period)
        return self.base_rate + swing * cycle


_KINDS = {
    "poisson": (PoissonArrivals, ("rate",), ()),
    "ramp": (RampArrivals, ("start_rate", "end_rate", "ramp"), ()),
    "diurnal": (DiurnalArrivals, ("base_rate", "peak_rate", "period"), ("phase",)),
}


def arrival_process_from_spec(spec: Dict[str, object]) -> ArrivalProcess:
    """Build an arrival process from its spec dict (``{"kind": ..., ...}``)."""
    if not isinstance(spec, dict):
        raise ValueError(f"arrival spec must be a dict, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ValueError(
            f"unknown arrival kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    cls, required, optional = _KINDS[kind]
    allowed = {"kind", *required, *optional}
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(f"arrival spec for {kind!r} has unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in spec]
    if missing:
        raise ValueError(f"arrival spec for {kind!r} is missing {missing}")
    kwargs = {key: spec[key] for key in (*required, *optional) if key in spec}
    return cls(**kwargs)


def next_arrival(
    process: ArrivalProcess,
    now: float,
    rng,
    peak_scale: float = 1.0,
    horizon: Optional[float] = None,
    rate_of_time=None,
) -> Optional[float]:
    """Draw the next arrival time after ``now`` by thinning.

    For a time-varying rate multiplier (e.g. the live virtual-client
    population) pass ``rate_of_time(t) -> multiplier`` and a ``peak_scale``
    upper bound for it.  Returns an absolute elapsed time, or ``None`` once
    the candidate passes ``horizon`` (no arrival within the traffic window).
    """
    cap = process.peak_rate * peak_scale
    if cap <= 0:
        return None
    t = now
    while True:
        t += rng.expovariate(cap)
        if horizon is not None and t >= horizon:
            return None
        multiplier = rate_of_time(t) if rate_of_time is not None else 1.0
        instantaneous = process.rate(t) * multiplier
        if rng.random() * cap <= instantaneous:
            return t
