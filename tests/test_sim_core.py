"""Tests for the discrete-event kernel."""

import pytest

from repro.obs import Observability
from repro.sim import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(2.0, log.append, "b")
    sim.schedule(1.0, log.append, "a")
    sim.schedule(3.0, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    log = []
    for label in "abcde":
        sim.schedule(1.0, log.append, label)
    sim.run()
    assert log == list("abcde")


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, "a")
    sim.schedule(5.0, log.append, "b")
    sim.run(until=2.0)
    assert log == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert log == ["a", "b"]


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_cancel_prevents_execution():
    sim = Simulator()
    log = []
    handle = sim.schedule(1.0, log.append, "x")
    handle.cancel()
    sim.run()
    assert log == []


def test_cannot_schedule_in_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    assert sim.pending_count() == 0  # a refused event left nothing behind
    sim.schedule_at(sim.now, lambda: None)  # "now" is not the past
    assert sim.pending_count() == 1


def test_nested_scheduling_from_callback():
    sim = Simulator()
    log = []

    def outer():
        log.append(("outer", sim.now))
        sim.schedule(1.0, inner)

    def inner():
        log.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert log == [("outer", 1.0), ("inner", 2.0)]


def test_call_soon_runs_after_pending_same_time_events():
    sim = Simulator()
    log = []
    sim.schedule(0.0, log.append, "first")
    sim.call_soon(log.append, "second")
    sim.run()
    assert log == ["first", "second"]


def test_max_events_bound():
    sim = Simulator()
    log = []
    for i in range(10):
        sim.schedule(float(i), log.append, i)
    sim.run(max_events=3)
    assert log == [0, 1, 2]


def test_rng_streams_are_deterministic_and_independent():
    sim1 = Simulator(seed=7)
    sim2 = Simulator(seed=7)
    a1 = [sim1.rng("a").random() for _ in range(5)]
    # consuming another stream must not perturb "a"
    sim2.rng("b").random()
    a2 = [sim2.rng("a").random() for _ in range(5)]
    assert a1 == a2


def test_rng_streams_differ_across_seeds():
    assert Simulator(seed=1).rng("a").random() != Simulator(seed=2).rng("a").random()


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


# ---------------------------------------------------------------------------
# the handle is the heap entry: what callers may rely on
# ---------------------------------------------------------------------------
def test_cancel_is_idempotent_and_safe_after_the_event_fired():
    sim = Simulator()
    log = []
    fired = sim.schedule(1.0, log.append, "fired")
    dropped = sim.schedule(2.0, log.append, "dropped")
    assert (fired.time, dropped.time) == (1.0, 2.0)
    assert sim.pending_count() == 2
    dropped.cancel()
    dropped.cancel()
    assert sim.pending_count() == 1
    sim.run()
    assert log == ["fired"]
    fired.cancel()  # too late to matter, and harmless
    fired.cancel()
    sim.schedule(1.0, log.append, "later")
    sim.run()
    assert log == ["fired", "later"]
    assert sim.events_processed == 2


def test_a_cancelled_head_is_skipped_by_run_and_pending_count():
    sim = Simulator()
    log = []
    heads = [sim.schedule(1.0, log.append, f"head{i}") for i in range(3)]
    sim.schedule(2.0, log.append, "a")
    sim.schedule(3.0, log.append, "b")
    sim.schedule(4.0, log.append, "c")
    for head in heads:
        head.cancel()
    assert sim.pending_count() == 3
    sim.run(max_events=1)
    assert log == ["a"]
    assert sim.now == 2.0  # the clock never visited the cancelled 1.0
    sim.schedule(2.5, log.append, "cancelled too").cancel()
    sim.run(until=3.5)
    assert log == ["a", "b"]
    assert sim.pending_count() == 1
    sim.run()
    assert log == ["a", "b", "c"] and sim.events_processed == 3
    assert sim.pending_count() == 0 and sim.now == 4.0


def test_a_thousand_same_timestamp_events_run_in_insertion_order():
    sim = Simulator()
    log = []
    handles = [sim.schedule_at(1.0, log.append, i) for i in range(1000)]
    for handle in handles[::7]:
        handle.cancel()
    # a callback scheduling at its own timestamp queues behind all of them
    sim.schedule_at(0.5, lambda: sim.schedule_at(1.0, log.append, "last"))
    sim.run()
    assert log == [i for i in range(1000) if i % 7] + ["last"]


def test_an_event_runs_under_the_trace_context_it_was_scheduled_in():
    sim = Simulator(obs=Observability(trace=True))
    tracer = sim.obs.tracer
    seen = []
    span = tracer.start_span("cause", kind="test", node="n")
    tracer.ctx = span
    sim.schedule(1.0, lambda: seen.append(tracer.ctx))
    tracer.ctx = None
    sim.schedule(2.0, lambda: seen.append(tracer.ctx))
    assert tracer.ctx is None
    sim.run()
    assert seen == [span, None]
    assert tracer.ctx is None  # restored after the callback


def test_events_without_a_context_skip_the_save_and_restore():
    """The fast path: no event and no caller carries a context, so the loop
    must not touch ``tracer.ctx`` at all — a tracer whose ``ctx`` cannot be
    assigned proves it."""

    class ReadOnlyContext:
        ctx = property(lambda self: None)

    sim = Simulator()
    sim._tracer = ReadOnlyContext()
    log = []
    sim.schedule(1.0, log.append, "ran")
    sim.run()
    assert log == ["ran"]
