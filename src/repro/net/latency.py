"""Latency models for network links.

A latency model yields one-way propagation delays (seconds).  Models are
sampled from a named RNG stream owned by the network, so runs are
deterministic under a fixed seed.  ``Network.transmit`` draws a
:class:`JitteredLatency` in line; every other model is asked to ``sample``.
"""

from __future__ import annotations

import random

__all__ = ["LatencyModel", "FixedLatency", "JitteredLatency"]


class LatencyModel:
    """Base class: one-way propagation delay sampler."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """A constant one-way delay."""

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError("latency must be non-negative")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"FixedLatency({self.delay * 1e3:.3f}ms)"


class JitteredLatency(LatencyModel):
    """Base delay plus truncated-Gaussian jitter.

    ``jitter`` is the standard deviation as a fraction of the base delay.
    Samples are clamped to ``[base / 2, base * 3]`` so a long Gaussian tail
    cannot produce negative or absurd delays.  The draw is
    ``min(ceil, max(floor, rng.gauss(base, base * jitter)))``, which
    ``Network.transmit`` runs in line (the model has no ``sample`` frame).
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
