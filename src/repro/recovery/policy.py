"""Retry policies: bounded exponential backoff with jitter.

One policy object describes how any recovery-era loop paces its attempts —
the client's per-call retries, the smart-proxy rebind loop, and a restarted
member's rejoin attempts all share :func:`backoff_delay` so they spread out
the same way after a correlated failure (a partition heal or manager crash
wakes *every* client at once; jitter keeps them from stampeding the
registry and the surviving members in lockstep).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict

__all__ = ["RetryPolicy", "backoff_delay"]

#: every backoff is spread uniformly over ``[d * (1 - J/2), d * (1 + J/2))``
JITTER = 0.5


def _jittered(delay: float, rng) -> float:
    return delay * (1.0 - JITTER / 2.0 + JITTER * rng.random())


def backoff_delay(attempt: int, base: float, factor: float, max_delay: float, rng) -> float:
    """Delay before retry ``attempt`` (1-based): capped exponential, jittered.

    The deterministic envelope is ``min(max_delay, base * factor**(attempt-1))``,
    spread by ``JITTER`` using ``rng`` (a seeded ``random.Random`` stream, so
    runs stay reproducible).
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    return _jittered(min(max_delay, base * factor ** (attempt - 1)), rng)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-call client retry tuning (``max_attempts=0`` = off, seed behaviour).

    ``max_attempts`` counts *additional* transmissions after the first: a
    call is sent at most ``1 + max_attempts`` times, always under its
    original call number so the servers' reply caches collapse the retries
    into one execution (§4.1's duplicate suppression).
    """

    max_attempts: int = 0
    base_delay: float = 50e-3
    factor: float = 2.0
    max_delay: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 0:
            raise ValueError("retry.max_attempts must be >= 0")
        if self.base_delay <= 0:
            raise ValueError("retry.base_delay must be > 0")
        if self.factor < 1.0:
            raise ValueError("retry.factor must be >= 1")
        if self.max_delay < self.base_delay:
            raise ValueError("retry.max_delay must be >= base_delay")

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 0

    def delay(self, attempt: int, rng) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        return backoff_delay(attempt, self.base_delay, self.factor, self.max_delay, rng)

    def retry_after_delay(self, hint: float, attempt: int, rng) -> float:
        """Backoff honoring a server-supplied retry-after ``hint``.

        An overloaded server knows its own queue better than the client's
        exponential guesswork does, so a positive hint replaces the
        exponential envelope — still capped at ``max_delay`` and never below
        ``base_delay``, and still jittered so a whole flash crowd shed in
        the same instant does not retry in the same instant.  A hint of 0
        (or less) falls back to :meth:`delay`.
        """
        if hint <= 0:
            return self.delay(attempt, rng)
        return _jittered(min(self.max_delay, max(self.base_delay, hint)), rng)

    @classmethod
    def from_dict(cls, data: Dict) -> "RetryPolicy":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"retry spec has unknown keys {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> Dict:
        return asdict(self)
