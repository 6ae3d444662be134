"""Deterministic discrete-event simulation kernel.

Public surface:

- :class:`~repro.sim.core.Simulator` — clock, event queue, named RNG streams.
- :class:`~repro.sim.futures.Future` — one-shot value containers.
- :mod:`~repro.sim.process` — generator processes (``spawn``, ``sleep``,
  ``all_of``, ``with_timeout``, ``run_process``).
"""

from repro.sim.core import SimulationError, Simulator
from repro.sim.futures import Future, FutureError, SimTimeout
from repro.sim.process import (
    Process,
    all_of,
    run_process,
    sleep,
    spawn,
    with_timeout,
)
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "Simulator",
    "SimulationError",
    "Future",
    "FutureError",
    "SimTimeout",
    "Process",
    "spawn",
    "sleep",
    "all_of",
    "with_timeout",
    "run_process",
    "RngRegistry",
    "derive_seed",
]
