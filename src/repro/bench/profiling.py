"""cProfile for the bench and scenario CLIs, and the call counter gates use.

``python -m repro.bench peer --profile`` (or ``--profile 40``) runs the
experiment under :mod:`cProfile` and prints the top-N entries by cumulative
time once it finishes — the quickest way to see where a slow workload's
CPU goes without editing any code.  :func:`count_calls` is the exact
counterpart of a host-clock time: a deterministic run makes the same calls
on every host.
"""

from __future__ import annotations

import cProfile
import contextlib
import pstats
import sys
from typing import Any, Callable, Iterator, Optional, Tuple

__all__ = ["profiled", "count_calls"]

DEFAULT_TOP = 25


@contextlib.contextmanager
def profiled(top: Optional[int], label: str = "") -> Iterator[None]:
    """Profile the enclosed block and print ``top`` cumulative entries.

    ``top`` of None disables profiling entirely (the flag was not given),
    so call sites can wrap unconditionally.
    """
    if top is None:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        title = f"profile: top {top} by cumulative time"
        if label:
            title += f" ({label})"
        print(f"\n{title}")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(top)


def count_calls(fn: Callable[[], Any]) -> Tuple[Any, int]:
    """``fn()``'s result and the Python and builtin calls it made (what
    cProfile counts, as ``benchmarks/e2e``'s ``host_pycalls_per_op`` does)."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    return result, sum(entry.callcount for entry in profiler.getstats())
