"""Named deterministic random streams.

Every source of randomness in the simulator (per-link jitter, workload think
times, fault injection) draws from its own named stream so that adding a new
consumer of randomness does not perturb the draws seen by existing ones.
Stream seeds are derived from the master seed and the stream name with a
stable hash, so results are reproducible across processes and Python
versions (``hash()`` is salted per process and therefore unsuitable).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from the master seed and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng
