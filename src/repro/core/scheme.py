"""Invocation-scheme configuration: the GMI-style scheme × reply matrix.

A :class:`SchemeConfig` pairs one :class:`~repro.core.modes.InvocationScheme`
with one :class:`~repro.core.modes.ReplyScheme` and is validated eagerly —
bad combinations (a ``combine`` reply without a reducer, a ``forward`` reply
without a destination, a reducer that fails the combining laws) raise
:class:`~repro.errors.ConfigurationError` at *bind* time, never after
replies have been folded into a wrong answer.

Reducers
--------
Reply combining folds per-member values into one.  The fold must produce
the same value however the replies arrived and however a combining tree
sliced the contributions, so a reducer has to satisfy the two combining
laws: **associativity** (tree-shape independence) and **commutativity**
(arrival-order independence).  Both are checked by deterministic probing
when the reducer is resolved; the runtime then always folds in sorted
member / rank order, so the laws are belt *and* braces.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.core.modes import InvocationScheme, ReplyScheme
from repro.errors import ConfigurationError

__all__ = [
    "Reducer",
    "REDUCERS",
    "resolve_reducer",
    "validate_reducer",
    "reduce_sorted",
    "SchemeConfig",
]

#: Default validation samples: enough variety to catch the classic
#: law-breakers (subtraction, division, averaging, string concatenation is
#: caught by commutativity once probed over its own domain).
_PROBE_VALUES: Tuple[int, ...] = (0, 1, 2, 3, 5, -7)


class Reducer:
    """A named binary fold, already validated against the combining laws."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]):
        self.name = name
        self.fn = fn

    def reduce(self, values: Iterable[Any]) -> Any:
        """Left-fold ``values``; raises ``ValueError`` on an empty input."""
        iterator = iter(values)
        try:
            accumulator = next(iterator)
        except StopIteration:
            raise ValueError(f"reducer {self.name!r} got no values") from None
        for value in iterator:
            accumulator = self.fn(accumulator, value)
        return accumulator

    def __repr__(self) -> str:
        return f"<Reducer {self.name}>"


def validate_reducer(
    name: str,
    fn: Callable[[Any, Any], Any],
    probe: Optional[Iterable[Any]] = None,
) -> None:
    """Probe ``fn`` for associativity and commutativity; raise if either fails.

    The probe is deterministic (no randomness: the same reducer always
    passes or always fails), and a reducer whose domain rejects the integer
    samples must be given ``probe`` values from its own domain.
    """
    values = tuple(probe) if probe is not None else _PROBE_VALUES
    if len(values) < 3:
        raise ConfigurationError(
            f"reducer {name!r}: need at least 3 probe values, got {len(values)}"
        )
    try:
        for a in values:
            for b in values:
                if fn(a, b) != fn(b, a):
                    raise ConfigurationError(
                        f"reducer {name!r} is not commutative: "
                        f"fn({a!r}, {b!r}) != fn({b!r}, {a!r}); reply combining "
                        f"must not depend on reply arrival order"
                    )
                for c in values:
                    if fn(fn(a, b), c) != fn(a, fn(b, c)):
                        raise ConfigurationError(
                            f"reducer {name!r} is not associative: "
                            f"fn(fn({a!r}, {b!r}), {c!r}) != fn({a!r}, fn({b!r}, {c!r})); "
                            f"reply combining must not depend on the combining-tree shape"
                        )
    except ConfigurationError:
        raise
    except Exception as exc:  # noqa: BLE001 - probe left the reducer's domain
        raise ConfigurationError(
            f"reducer {name!r} failed its validation probe ({exc}); pass "
            f"probe= samples from the reducer's domain"
        ) from exc


def _logical_or(a: Any, b: Any) -> bool:
    return bool(a) or bool(b)


def _logical_and(a: Any, b: Any) -> bool:
    return bool(a) and bool(b)


#: Built-in reducers (all pre-validated at import time, below).
REDUCERS: Dict[str, Reducer] = {
    "sum": Reducer("sum", lambda a, b: a + b),
    "prod": Reducer("prod", lambda a, b: a * b),
    "min": Reducer("min", min),
    "max": Reducer("max", max),
    "any": Reducer("any", _logical_or),
    "all": Reducer("all", _logical_and),
}

for _reducer in REDUCERS.values():
    validate_reducer(_reducer.name, _reducer.fn)
del _reducer


ReducerSpec = Union[str, Reducer, Callable[[Any, Any], Any]]


def resolve_reducer(spec: ReducerSpec, probe: Optional[Iterable[Any]] = None) -> Reducer:
    """Turn a reducer spec (name / Reducer / bare callable) into a validated
    :class:`Reducer`; unknown names and law-breaking callables raise
    :class:`ConfigurationError`."""
    if isinstance(spec, Reducer):
        validate_reducer(spec.name, spec.fn, probe)
        return spec
    if isinstance(spec, str):
        reducer = REDUCERS.get(spec)
        if reducer is None:
            raise ConfigurationError(
                f"unknown reducer {spec!r}; expected one of {sorted(REDUCERS)} "
                f"or a callable"
            )
        return reducer
    if callable(spec):
        name = getattr(spec, "__name__", None) or "custom"
        validate_reducer(name, spec, probe)
        return Reducer(name, spec)
    raise ConfigurationError(f"not a reducer: {spec!r}")


def reduce_sorted(reducer: Reducer, by_member: Mapping[str, Any]) -> Any:
    """Fold a member->value mapping in sorted member order (the canonical
    order: identical at every fold site regardless of arrival order)."""
    return reducer.reduce(by_member[member] for member in sorted(by_member))


class SchemeConfig:
    """One cell of the invocation-scheme × reply-scheme matrix.

    Fully validated on construction; a :class:`SchemeConfig` that exists is
    a legal one.

    - ``reducer`` (reply ``combine`` only): name / callable / Reducer.
    - ``forward_to`` (reply ``forward`` only): node name that receives the
      gathered reply through its client sink.
    - ``callers`` (combined schemes only): the caller cohort; position in
      the sorted cohort is the caller's rank, rank 0 is the root.
    - ``arg_reducer`` (combined schemes only, optional): how contributed
      arguments merge on the way up.  ``None`` collects single-argument
      contributions into one rank-ordered list; a reducer spec folds them
      (true in-network aggregation — map/reduce over the cohort).
    """

    __slots__ = (
        "invocation",
        "reply",
        "reducer",
        "arg_reducer",
        "forward_to",
        "callers",
        "combine_id",
    )

    def __init__(
        self,
        invocation: str = InvocationScheme.SINGLE,
        reply: str = ReplyScheme.RETURN_ONE,
        reducer: Optional[ReducerSpec] = None,
        arg_reducer: Optional[ReducerSpec] = None,
        forward_to: Optional[str] = None,
        callers: Optional[Iterable[str]] = None,
        combine_id: Optional[str] = None,
        probe: Optional[Iterable[Any]] = None,
    ):
        if invocation not in InvocationScheme.ALL_SCHEMES:
            raise ConfigurationError(
                f"unknown invocation scheme {invocation!r}; expected one of "
                f"{InvocationScheme.ALL_SCHEMES}"
            )
        if reply not in ReplyScheme.ALL_SCHEMES:
            raise ConfigurationError(
                f"unknown reply scheme {reply!r}; expected one of "
                f"{ReplyScheme.ALL_SCHEMES}"
            )
        self.invocation = invocation
        self.reply = reply

        if reply == ReplyScheme.COMBINE:
            if reducer is None:
                raise ConfigurationError(
                    "reply scheme 'combine' requires a reducer"
                )
            self.reducer = resolve_reducer(reducer, probe)
        else:
            if reducer is not None:
                raise ConfigurationError(
                    f"reducer given but reply scheme is {reply!r}, not 'combine'"
                )
            self.reducer = None

        if reply == ReplyScheme.FORWARD:
            if not forward_to:
                raise ConfigurationError(
                    "reply scheme 'forward' requires forward_to=<node>"
                )
            self.forward_to = forward_to
        else:
            if forward_to is not None:
                raise ConfigurationError(
                    f"forward_to given but reply scheme is {reply!r}, not 'forward'"
                )
            self.forward_to = None

        if invocation in InvocationScheme.COMBINED_SCHEMES:
            cohort = list(callers or ())
            if len(cohort) < 1:
                raise ConfigurationError(
                    f"invocation scheme {invocation!r} requires callers=<cohort>"
                )
            if len(set(cohort)) != len(cohort):
                raise ConfigurationError(f"duplicate callers in cohort {cohort}")
            #: sorted: every cohort member derives identical ranks locally
            self.callers = tuple(sorted(cohort))
            self.combine_id = combine_id or "cmb"
            self.arg_reducer = (
                resolve_reducer(arg_reducer, probe) if arg_reducer is not None else None
            )
        else:
            if callers is not None:
                raise ConfigurationError(
                    f"callers given but invocation scheme is {invocation!r}"
                )
            if arg_reducer is not None:
                raise ConfigurationError(
                    f"arg_reducer given but invocation scheme is {invocation!r}"
                )
            self.callers = None
            self.combine_id = None
            self.arg_reducer = None

    # ------------------------------------------------------------------
    @property
    def is_combined(self) -> bool:
        return self.invocation in InvocationScheme.COMBINED_SCHEMES

    def rank_of(self, node: str) -> int:
        """This node's rank in the combined-caller cohort (root is 0)."""
        try:
            return self.callers.index(node)
        except (AttributeError, ValueError):
            raise ConfigurationError(
                f"{node!r} is not in the combined-caller cohort {self.callers}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SchemeConfig {self.invocation}/{self.reply}>"

