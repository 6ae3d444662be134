"""Latency models for network links.

A model gives one-way propagation delays (seconds): ``Network.transmit``
draws ``min(ceil, max(floor, rng.gauss(base, base * jitter)))`` from a
named RNG stream the network owns, so runs are deterministic under a fixed
seed.
"""

from __future__ import annotations

__all__ = ["FixedLatency", "JitteredLatency"]


class JitteredLatency:
    """Base delay plus truncated-Gaussian jitter.

    ``jitter`` is the standard deviation as a fraction of the base delay.
    Delays are clamped to ``[base / 2, base * 3]`` so a long Gaussian tail
    cannot produce negative or absurd delays.
    """

    def __init__(self, base: float, jitter: float = 0.1):
        if base <= 0:
            raise ValueError("base latency must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.base = base
        self.jitter = jitter
        self.floor = base * 0.5
        self.ceil = base * 3.0

    def __repr__(self) -> str:
        return f"JitteredLatency({self.base * 1e3:.3f}ms ±{self.jitter * 100:.0f}%)"


class FixedLatency(JitteredLatency):
    """A constant one-way delay: no jitter, and ``floor = ceil = delay``."""

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError("latency must be non-negative")
        self.delay = self.base = self.floor = self.ceil = delay
        self.jitter = 0.0

    def __repr__(self) -> str:
        return f"FixedLatency({self.delay * 1e3:.3f}ms)"
