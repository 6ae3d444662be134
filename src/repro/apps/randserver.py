"""The paper's benchmark servant: a pseudo-random number server (§5.1).

"The server used in this experiment is a CORBA object that simply returns a
pseudo random number when requested to do so by a client."  Determinism
matters for active replication, so the generator is seeded identically at
every replica and advances once per (totally ordered) request — replicas
therefore return identical numbers, which doubles as a consistency check.
"""

from __future__ import annotations

import random

__all__ = ["RandomNumberServant"]


class RandomNumberServant:
    """Returns pseudo-random numbers; deterministic across replicas."""

    #: negligible computation, as in the paper ("assuming negligible
    #: computation time for a service")
    OP_COSTS = {"draw": 15e-6}

    def __init__(self, seed: int = 0xFEED):
        self._seed = seed
        self._rng = random.Random(seed)
        self._draws = 0

    def draw(self) -> int:
        """One pseudo-random 32-bit integer."""
        self._draws += 1
        return self._rng.getrandbits(32)

    # -- state transfer (joining replicas catch up deterministically) ------
    def get_state(self):
        return self._draws

    def set_state(self, state) -> None:
        self._rng = random.Random(self._seed)
        for _ in range(state):
            self._rng.getrandbits(32)
        self._draws = state
