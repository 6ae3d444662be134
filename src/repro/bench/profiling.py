"""cProfile for the bench and scenario CLIs, and the two costs gates report.

``python -m repro.bench peer --profile`` (or ``--profile 40``) runs the
experiment under :mod:`cProfile` and prints the top-N entries by cumulative
time once it finishes — the quickest way to see where a slow workload's
CPU goes without editing any code.  :func:`count_calls` is the exact
counterpart of :func:`cpu_time`: a deterministic run makes the same calls
on every host, while its CPU time moves with the host's load.
"""

from __future__ import annotations

import cProfile
import contextlib
import gc
import pstats
import sys
import time
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

__all__ = ["profiled", "count_calls", "cpu_time", "count_then_time"]

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


@contextlib.contextmanager
def _collector_off() -> Iterator[None]:
    """Collector cycles land on runs at random (and the finalisers they run
    are calls too), so measure with GC off, timeit-style, from a clean heap."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def count_calls(fn: Callable[[], Any]) -> Tuple[Any, int]:
    """``fn()``'s result and the Python and builtin calls it made (what
    cProfile counts, as ``benchmarks/e2e``'s ``host_pycalls_per_op`` does)."""
    profiler = cProfile.Profile()
    with _collector_off():
        result = profiler.runcall(fn)
    return result, sum(entry.callcount for entry in profiler.getstats())


def cpu_time(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """``fn()``'s result and the process CPU seconds it took."""
    with _collector_off():
        start = time.process_time()
        result = fn()
        return result, time.process_time() - start


def count_then_time(run: Callable[[Callable], Tuple[Dict, Any]]) -> Tuple[Dict, int, float]:
    """``run(cost)``, which measures its work as ``cost(fn)``, counted and then
    timed: its behaviour values, the first run's calls and the second run's
    CPU seconds.  The counted run doubles as the warm-up."""
    behaviour, calls = run(count_calls)
    replayed, cpu = run(cpu_time)
    if replayed != behaviour:
        raise SystemExit(
            f"NONDETERMINISM: a same-process replay of one seed gave {replayed}, "
            f"the first run {behaviour}"
        )
    return behaviour, calls, cpu
