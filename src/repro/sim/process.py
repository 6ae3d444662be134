"""Generator-based processes on top of the simulation kernel.

A *process* is a Python generator that yields :class:`~repro.sim.futures.Future`
objects; the process resumes (with the future's value) when the future
resolves.  This gives workload code — closed-loop clients, experiment
drivers — a natural blocking style::

    def client(sim, binding):
        for _ in range(100):
            reply = yield binding.invoke("draw", ())
            yield sleep(sim, think_time)

Processes are themselves futures (resolving with the generator's return
value), so they compose: a process can ``yield`` another process.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional

from repro.sim.core import Simulator
from repro.sim.futures import Future, SimTimeout

__all__ = [
    "Process",
    "spawn",
    "sleep",
    "all_of",
    "with_timeout",
    "run_process",
]


class Process(Future):
    """A running generator; resolves with the generator's return value."""

    __slots__ = ("_sim", "_gen")

    def __init__(self, sim: Simulator, gen: Generator, name: str = ""):
        super().__init__(name=name or getattr(gen, "__name__", "process"))
        self._sim = sim
        self._gen = gen
        sim.obs.metrics.counter("sim.processes_spawned").inc()
        sim.call_soon(self._step, None, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        """Advance the generator until it yields a pending future or finishes."""
        while True:
            try:
                if exc is not None:
                    awaited = self._gen.throw(exc)
                else:
                    awaited = self._gen.send(value)
            except StopIteration as stop:
                self._sim.obs.metrics.counter("sim.processes_completed").inc()
                self.resolve(stop.value)
                return
            except BaseException as err:  # noqa: BLE001 - propagate via future
                self._sim.obs.metrics.counter("sim.processes_failed").inc()
                self.fail(err)
                return
            if not isinstance(awaited, Future):
                self.fail(
                    TypeError(
                        f"process {self.name!r} yielded {awaited!r}; "
                        "processes must yield Future objects"
                    )
                )
                return
            if awaited.done:
                if awaited.failed:
                    value, exc = None, awaited.exception
                else:
                    value, exc = awaited.result(), None
                continue
            awaited.add_done_callback(self._resume)
            return

    def _resume(self, fut: Future) -> None:
        if fut.failed:
            self._step(None, fut.exception)
        else:
            self._step(fut.result(), None)


def spawn(sim: Simulator, gen: Generator, name: str = "") -> Process:
    """Start ``gen`` as a process; it begins at the current virtual time."""
    return Process(sim, gen, name=name)


def sleep(sim: Simulator, delay: float) -> Future:
    """A future that resolves ``delay`` seconds of virtual time from now."""
    fut = Future(name=f"sleep({delay})")
    sim.schedule(delay, fut.resolve, None)
    return fut


def all_of(futures: Iterable[Future]) -> Future:
    """Resolve with the list of results once every future succeeds.

    Fails fast with the first failure.
    """
    futures = list(futures)
    combined = Future(name=f"all_of[{len(futures)}]")
    if not futures:
        combined.resolve([])
        return combined
    remaining = [len(futures)]
    results: List[Any] = [None] * len(futures)

    def on_done(index: int, fut: Future) -> None:
        if combined.done:
            return
        if fut.failed:
            combined.fail(fut.exception)
            return
        results[index] = fut.result()
        remaining[0] -= 1
        if remaining[0] == 0:
            combined.resolve(results)

    for i, fut in enumerate(futures):
        fut.add_done_callback(lambda f, i=i: on_done(i, f))
    return combined


def with_timeout(sim: Simulator, future: Future, timeout: float) -> Future:
    """Wrap ``future`` with a deadline; fails with :class:`SimTimeout` if it
    does not complete within ``timeout`` seconds of virtual time."""
    wrapped = Future(name=f"timeout({future.name}, {timeout})")
    timer = sim.schedule(
        timeout, lambda: wrapped.try_fail(SimTimeout(f"{future.name}: {timeout}s"))
    )

    future.add_done_callback(lambda _fut: timer.cancel())
    return future.then(lambda value: value, into=wrapped)


def run_process(sim: Simulator, gen: Generator, until: Optional[float] = None) -> Any:
    """Spawn ``gen``, run the simulator until it finishes, return its value.

    Convenience for tests and examples.  Raises if the process fails or (when
    ``until`` is given) does not finish in time.
    """
    proc = spawn(sim, gen)
    sim.run(until=until)
    if not proc.done:
        raise RuntimeError(f"process {proc.name!r} did not finish by t={sim.now}")
    return proc.result()
