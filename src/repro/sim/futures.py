"""Futures for the simulation kernel.

A :class:`Future` is a one-shot container for a value (or exception) produced
at some later virtual time.  Protocol code resolves futures from event
handlers; workload code awaits them by yielding from generator-based
processes (:mod:`repro.sim.process`).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = ["Future", "FutureError", "SimTimeout"]


class FutureError(RuntimeError):
    """Raised on misuse of a Future (double resolve, premature result)."""


class SimTimeout(Exception):
    """Raised by :func:`repro.sim.process.with_timeout` when a deadline passes."""


class Future:
    """A one-shot, single-value future.

    Unlike asyncio futures there is no event loop affinity; callbacks run
    synchronously when the future is resolved (the resolver is always inside
    a simulator callback, so time is well-defined).
    """

    __slots__ = ("_done", "_value", "_exc", "_callbacks", "name")

    def __init__(self, name: str = ""):
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []
        self.name = name

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def failed(self) -> bool:
        return self._done and self._exc is not None

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    def result(self) -> Any:
        """Return the value; re-raise the stored exception on failure."""
        if not self._done:
            raise FutureError(f"future {self.name!r} is not resolved yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        if self._done:
            raise FutureError(f"future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        self._fire()

    def fail(self, exc: BaseException) -> None:
        """Complete the future with an exception."""
        if self._done:
            raise FutureError(f"future {self.name!r} resolved twice")
        self._done = True
        self._exc = exc
        self._fire()

    def try_resolve(self, value: Any = None) -> bool:
        """Resolve unless already done; return whether this call resolved it."""
        if self._done:
            return False
        self.resolve(value)
        return True

    def try_fail(self, exc: BaseException) -> bool:
        """Fail unless already done; return whether this call failed it."""
        if self._done:
            return False
        self.fail(exc)
        return True

    # ------------------------------------------------------------------
    # callbacks
    # ------------------------------------------------------------------
    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        """Call ``fn(self)`` when done (immediately if already done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def then(self, fn: Callable[[Any], Any], into: Optional["Future"] = None) -> "Future":
        """Hand this future's outcome on through ``fn``: the one hand-off.

        ``into`` (a fresh future unless given) resolves with ``fn(value)``,
        fails with this future's exception, or fails with whatever ``fn``
        raised.  An ``into`` somebody settled first is left as it is.
        """
        if into is None:
            into = Future(name=self.name)

        def hand_on(fut: "Future") -> None:
            if into._done:
                return
            if fut._exc is not None:
                into.fail(fut._exc)
                return
            try:
                value = fn(fut._value)
            except Exception as exc:  # noqa: BLE001 - fn's error is the outcome
                into.fail(exc)
            else:
                into.resolve(value)

        if self._done:
            hand_on(self)
        else:
            self._callbacks.append(hand_on)
        return into

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self._done:
            state = "pending"
        elif self._exc is not None:
            state = f"failed({self._exc!r})"
        else:
            state = f"done({self._value!r})"
        return f"<Future {self.name!r} {state}>"
