"""A fixed pure-Python kernel that measures how fast this host is right now.

Host CPU on a shared machine drifts by tens of percent over seconds to
minutes (measured: identical passes took 0.97-1.85 s), which no statistic
taken inside one run can remove.  The kernel below does a fixed amount of
the work the simulator does — heap pushes and pops of tuples, dict reads
and writes, slotted-object allocation, bound-method calls, struct packing
and bytes joins — and is timed immediately before and after every timed
region.  Host metrics are reported scaled to a host on which the kernel
takes ``REFERENCE_S``, so a number measured in a slow minute compares with
one measured in a fast minute.

The kernel is part of the benchmark, so a change that claims a gain cannot
touch it; it must never import from ``src/``.
"""

from __future__ import annotations

import heapq
import struct
import time

#: kernel time on the host the first baseline was measured on, quiet
REFERENCE_S = 0.080

_PACK = struct.Struct(">IdH").pack


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight

    def fold(self, table: dict) -> int:
        table[self.key] = table.get(self.key, 0) + self.weight
        return self.weight


def kernel(rounds: int = 80000) -> float:
    """Run the fixed kernel; returns its host CPU seconds."""
    started = time.process_time()
    heap: list = []
    table: dict = {}
    chunks: list = []
    total = 0
    for index in range(rounds):
        cell = _Cell(index & 1023, index)
        heapq.heappush(heap, (float(index ^ 0x5555), index, cell))
        if index & 1:
            total += heapq.heappop(heap)[2].fold(table)
        if not index & 7:
            chunks.append(_PACK(index, 0.5, index & 0xFFFF))
            if len(chunks) == 32:
                total += len(b"".join(chunks))
                chunks.clear()
    return time.process_time() - started


def scale(before_s: float, after_s: float) -> float:
    """Factor that converts host time measured between two kernel runs to
    reference-host time."""
    return REFERENCE_S / ((before_s + after_s) / 2.0)
