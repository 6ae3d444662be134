"""Open-loop traffic generation with virtual-client churn.

One :class:`OpenLoopGenerator` models an arbitrarily large population of
virtual clients as a single simulation process: arrivals are drawn from an
aggregate process (per-client rate × live population, via thinning) and
each arrival fires one invocation through one of a small set of real
*attachment* bindings — the production pattern of many users multiplexed
over a few connections.  Requests are issued whether or not earlier ones
have completed (open loop); completions are tracked by callback.

:class:`Population` provides client churn: scripted join/leave steps plus
optional stochastic churn (Poisson join/leave events), evolved lazily and
deterministically as the generator queries the live size.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import Overloaded
from repro.scenario.arrivals import ArrivalProcess, next_arrival
from repro.sim import Future, Simulator, sleep, spawn

__all__ = ["Population", "OpenLoopGenerator", "TrafficStats", "KeySampler"]


class KeySampler:
    """Key-popularity model for keyed workloads (sharded kvstore, topics).

    Draws keys ``k0 … k{space-1}`` either uniformly or Zipf-skewed
    (popularity of rank ``r`` ∝ ``1 / r**alpha`` — the classic hot-key
    model), and decides per arrival whether the request is a multi-key
    batch (``multi_fraction``) of ``multi_size`` distinct keys.  All draws
    come from the injected named-stream RNG, so runs stay deterministic.
    """

    DISTRIBUTIONS = ("uniform", "zipf")
    _FIELDS = ("space", "distribution", "alpha", "multi_fraction", "multi_size")

    def __init__(
        self,
        space: int = 64,
        distribution: str = "uniform",
        alpha: float = 1.1,
        multi_fraction: float = 0.0,
        multi_size: int = 4,
        rng=None,
    ):
        if space < 1:
            raise ValueError("keys.space must be >= 1")
        if distribution not in self.DISTRIBUTIONS:
            raise ValueError(
                f"keys.distribution must be one of {self.DISTRIBUTIONS}, "
                f"got {distribution!r}"
            )
        if distribution == "zipf" and alpha <= 0:
            raise ValueError("keys.alpha must be > 0 for zipf")
        if not 0.0 <= multi_fraction <= 1.0:
            raise ValueError("keys.multi_fraction must be in [0, 1]")
        if multi_size < 1:
            raise ValueError("keys.multi_size must be >= 1")
        self.space = int(space)
        self.alpha = float(alpha)
        self.multi_fraction = float(multi_fraction)
        self.multi_size = int(multi_size)
        self._rng = rng
        self._cumulative: Optional[List[float]] = None
        if distribution == "zipf":
            weights = [1.0 / (rank**self.alpha) for rank in range(1, self.space + 1)]
            total = 0.0
            self._cumulative = []
            for weight in weights:
                total += weight
                self._cumulative.append(total)

    @classmethod
    def from_spec(cls, spec: Dict, rng=None) -> "KeySampler":
        """Build from a traffic-spec ``keys`` object; unknown keys fail."""
        if not isinstance(spec, dict):
            raise ValueError("traffic.keys must be an object")
        unknown = set(spec) - set(cls._FIELDS)
        if unknown:
            raise ValueError(
                f"traffic.keys has unknown keys {sorted(unknown)}; "
                f"allowed: {sorted(cls._FIELDS)}"
            )
        return cls(rng=rng, **spec)

    def _rank(self) -> int:
        if self._cumulative is None:
            return self._rng.randrange(self.space)
        point = self._rng.random() * self._cumulative[-1]
        return bisect.bisect_left(self._cumulative, point)

    def key(self) -> str:
        """One key draw (``k{rank}``; the hash router spreads ranks)."""
        return f"k{self._rank()}"

    def batch(self) -> List[str]:
        """``multi_size`` *distinct* keys (capped by the key space)."""
        wanted = min(self.multi_size, self.space)
        chosen: List[str] = []
        seen = set()
        while len(chosen) < wanted:
            key = self.key()
            if key not in seen:
                seen.add(key)
                chosen.append(key)
        return chosen

    def is_multi(self) -> bool:
        return self.multi_fraction > 0 and self._rng.random() < self.multi_fraction


class Population:
    """The number of live virtual clients N(t), with churn.

    ``steps`` is a list of ``{"at": seconds, "join": n}`` /
    ``{"at": seconds, "leave": n}`` dicts (relative to traffic start).
    ``join_rate`` / ``leave_rate`` add stochastic churn: independent
    Poisson streams of single-client joins and leaves, clamped to
    ``[min_clients, max_clients]``.  ``max_clients`` is required when
    stochastic churn is enabled — it bounds the thinning cap.

    Like the arrival processes, state evolves lazily under non-decreasing
    ``size(t)`` queries.
    """

    def __init__(
        self,
        initial: int,
        steps: Sequence[Dict[str, float]] = (),
        join_rate: float = 0.0,
        leave_rate: float = 0.0,
        min_clients: int = 0,
        max_clients: Optional[int] = None,
        rng=None,
    ):
        if initial < 0:
            raise ValueError("initial population must be >= 0")
        if join_rate < 0 or leave_rate < 0:
            raise ValueError("churn rates must be >= 0")
        stochastic = join_rate > 0 or leave_rate > 0
        if stochastic and max_clients is None:
            raise ValueError("max_clients is required with stochastic churn")
        if stochastic and rng is None:
            raise ValueError("stochastic churn needs an RNG")
        self._steps: List[Tuple[float, int]] = []
        for step in steps:
            unknown = set(step) - {"at", "join", "leave"}
            if unknown:
                raise ValueError(f"churn step has unknown keys {sorted(unknown)}")
            if "at" not in step or ("join" in step) == ("leave" in step):
                raise ValueError(
                    f"churn step needs 'at' and exactly one of join/leave: {step!r}"
                )
            delta = int(step.get("join", 0)) - int(step.get("leave", 0))
            self._steps.append((float(step["at"]), delta))
        self._steps.sort(key=lambda pair: pair[0])
        self.initial = initial
        self.join_rate = float(join_rate)
        self.leave_rate = float(leave_rate)
        self.min_clients = int(min_clients)
        self.max_clients = max_clients if max_clients is None else int(max_clients)
        self._rng = rng
        self._size = initial
        self._next_step = 0
        self._next_churn: Optional[float] = None
        self.joins = 0
        self.leaves = 0
        self.peak_seen = initial

    @property
    def peak(self) -> int:
        """Upper bound on N(t) over all time (for the thinning cap)."""
        if self.max_clients is not None:
            return self.max_clients
        size = peak = self.initial
        for _at, delta in self._steps:
            size += delta
            peak = max(peak, size)
        return peak

    def _clamp(self, size: int) -> int:
        if self.max_clients is not None:
            size = min(size, self.max_clients)
        return max(size, self.min_clients)

    def _churn_gap(self) -> float:
        total = self.join_rate + self.leave_rate
        return self._rng.expovariate(total) if total > 0 else float("inf")

    def size(self, t: float) -> int:
        """Live population at elapsed time ``t`` (non-decreasing queries)."""
        stochastic = self.join_rate + self.leave_rate > 0
        if stochastic and self._next_churn is None:
            self._next_churn = self._churn_gap()
        while True:
            step_at = (
                self._steps[self._next_step][0]
                if self._next_step < len(self._steps)
                else float("inf")
            )
            churn_at = self._next_churn if self._next_churn is not None else float("inf")
            event_at = min(step_at, churn_at)
            if event_at > t:
                break
            if step_at <= churn_at:
                delta = self._steps[self._next_step][1]
                self._next_step += 1
                if delta > 0:
                    self.joins += delta
                else:
                    self.leaves += -delta
                self._size = self._clamp(self._size + delta)
            else:
                total = self.join_rate + self.leave_rate
                if self._rng.random() * total < self.join_rate:
                    self.joins += 1
                    self._size = self._clamp(self._size + 1)
                else:
                    self.leaves += 1
                    self._size = self._clamp(self._size - 1)
                self._next_churn = churn_at + self._churn_gap()
            self.peak_seen = max(self.peak_seen, self._size)
        return self._size

    def describe(self) -> Dict[str, object]:
        return {
            "initial": self.initial,
            "final": self._size,
            "peak_seen": self.peak_seen,
            "joins": self.joins,
            "leaves": self.leaves,
        }


class TrafficStats:
    """Aggregate accounting for one generator run."""

    __slots__ = ("offered", "completed", "errors", "shed", "samples")

    def __init__(self):
        self.offered = 0
        self.completed = 0
        self.errors = 0
        #: arrivals refused by load shedding: the generator's own
        #: max_in_flight cap, or admission control (an Overloaded failure)
        self.shed = 0
        #: (issue_time_elapsed, latency_seconds) per completed request
        self.samples: List[Tuple[float, float]] = []

    @property
    def lost(self) -> int:
        """Requests issued but never resolved — must be 0 after drain."""
        return self.offered - self.shed - self.completed - self.errors

    def snapshot(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "errors": self.errors,
            "shed": self.shed,
            "lost": self.lost,
        }


class OpenLoopGenerator:
    """Drives open-loop arrivals into a set of issuer callables.

    ``issuers`` are zero-argument callables returning a
    :class:`~repro.sim.futures.Future` (one per real attachment binding or
    peer session); arrivals round-robin across them.  The generator issues
    for ``duration`` seconds of virtual time, then waits for the in-flight
    tail.  ``finished`` resolves once every issued request has completed or
    failed — with per-request timeouts at the issuer level this always
    happens, making "zero lost replies" a checkable SLO.
    """

    def __init__(
        self,
        sim: Simulator,
        issuers: Sequence[Callable[[], Future]],
        process: ArrivalProcess,
        population: Population,
        duration: float,
        max_in_flight: Optional[int] = None,
    ):
        if not issuers:
            raise ValueError("OpenLoopGenerator needs at least one issuer")
        if duration <= 0:
            raise ValueError("traffic duration must be > 0")
        if population.peak <= 0:
            raise ValueError("population peak must be > 0 to generate traffic")
        self.sim = sim
        self.issuers = list(issuers)
        self.process = process
        self.population = population
        self.duration = duration
        self.max_in_flight = max_in_flight
        self.stats = TrafficStats()
        self.in_flight = 0
        self.start_time: Optional[float] = None
        self.finished = Future(name="scenario.traffic")
        self._rng = sim.rng("scenario.arrivals")

        metrics = sim.obs.metrics
        self._offered_c = metrics.counter("scenario.offered")
        self._completed_c = metrics.counter("scenario.completed")
        self._errors_c = metrics.counter("scenario.errors")
        self._shed_c = metrics.counter("scenario.shed")
        self._latency_hist = metrics.histogram("scenario.latency")
        metrics.pull_gauge("scenario.in_flight", lambda: self.in_flight)
        self._issuing_done = False
        self._issue_index = 0

    def start(self) -> "OpenLoopGenerator":
        self.start_time = self.sim.now
        spawn(self.sim, self._loop(), name="scenario.traffic")
        return self

    # ------------------------------------------------------------------
    # issuance
    # ------------------------------------------------------------------
    def _loop(self):
        elapsed = 0.0
        while True:
            arrival = next_arrival(
                self.process,
                elapsed,
                self._rng,
                peak_scale=float(self.population.peak),
                horizon=self.duration,
                rate_of_time=lambda t: float(self.population.size(t)),
            )
            if arrival is None:
                break
            yield sleep(self.sim, arrival - elapsed)
            elapsed = arrival
            self._issue(elapsed)
        self._issuing_done = True
        self._maybe_finish()
        return self.stats

    def _issue(self, elapsed: float) -> None:
        self.stats.offered += 1
        self._offered_c.inc()
        if self.max_in_flight is not None and self.in_flight >= self.max_in_flight:
            self.stats.shed += 1
            self._shed_c.inc()
            return
        issuer = self.issuers[self._issue_index % len(self.issuers)]
        self._issue_index += 1
        future = issuer()
        self.in_flight += 1
        future.add_done_callback(lambda f, t=elapsed: self._on_complete(f, t))

    def _on_complete(self, future: Future, issued_at: float) -> None:
        self.in_flight -= 1
        if future.failed:
            if isinstance(future.exception, Overloaded):
                # admission control refused the call before execution: that
                # is load shedding working, not a protocol failure
                self.stats.shed += 1
                self._shed_c.inc()
            else:
                self.stats.errors += 1
                self._errors_c.inc()
        else:
            latency = (self.sim.now - self.start_time) - issued_at
            self.stats.completed += 1
            self._completed_c.inc()
            self._latency_hist.record(latency)
            self.stats.samples.append((issued_at, latency))
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._issuing_done and self.in_flight == 0:
            self.finished.try_resolve(self.stats)
