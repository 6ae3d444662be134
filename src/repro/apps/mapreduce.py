"""A map/reduce aggregation servant for combined-invocation workloads.

The combined schemes (:mod:`repro.core.combined`) merge a caller cohort's
contributions *before* the group sees a single call; with an argument
reducer the merge is a true in-network fold.  This servant is the sink for
that traffic: ``aggregate`` accepts either the folded value or the
rank-ordered contribution list (no argument reducer) and keeps a running
total.  Requests are totally ordered, so actively replicated copies stay
identical — the running total doubles as a consistency check, like the
random-number servant's draw counter.
"""

from __future__ import annotations

__all__ = ["MapReduceServant"]


class MapReduceServant:
    """Accumulates combined contributions; deterministic across replicas."""

    OP_COSTS = {"aggregate": 25e-6}

    def __init__(self):
        self._total = 0
        self._calls = 0

    def aggregate(self, value):
        """Fold one combined contribution into the running total.

        ``value`` is the cohort's in-network-reduced scalar, or the
        rank-ordered list of per-caller contributions when the scheme has
        no argument reducer.
        """
        if isinstance(value, list):
            value = sum(value)
        self._total += value
        self._calls += 1
        return self._total

    # -- state transfer (joining replicas catch up deterministically) ------
    def get_state(self):
        return (self._total, self._calls)

    def set_state(self, state) -> None:
        self._total, self._calls = state
